import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import types
import typing
from dataclasses import replace
from datetime import datetime, timedelta
from itertools import chain, islice
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agdim
import agdim.cli as cli
from agdim import efficiency, kernels, moduli, pairs, satake, verify
from agdim.arith import dmax
import agdim.tables as tables_mod
from agdim.report import MAX_LISTED, VerificationReport
from agdim.schemas import (
    CATALOG_SCHEMA,
    DMAX_TABLE_SCHEMA,
    EXPLAIN_SCHEMA,
    TABLES_DOCUMENT_SCHEMA,
    VERIFICATION_REPORT_SCHEMA,
)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(script):
    """Run ``script`` (which sets ``code``) in a fresh interpreter; return
    ``code``, the child's peak RSS in kB and its stdout.  The peak is the
    child's VmHWM: its ru_maxrss would include the high-water mark of this
    process, which exec carries over on Linux."""
    script += (
        "import sys\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, hwm.split()[1], file=sys.stderr)\n"
    )
    src = str(Path(agdim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, peak_kb = map(int, proc.stderr.split())
    return code, peak_kb, proc.stdout


class TestDmaxCommand:
    def test_range_markdown(self, capsys):
        code, out, _ = run(capsys, ["dmax", "16..18"])
        assert code == 0
        assert "| 16 | 16 |" in out
        assert "| 17 | 16 |" in out
        assert "| 18 | 20 |" in out

    def test_single_value(self, capsys):
        code, out, _ = run(capsys, ["dmax", "1", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["g,dmax", "1,0"]

    def test_large_value_json(self, capsys):
        code, out, _ = run(capsys, ["dmax", "100", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, DMAX_TABLE_SCHEMA)
        assert doc["values"] == [{"g": 100, "dmax": 625}]

    def test_bad_range_usage_error(self, capsys):
        for bad in ("0", "5..2", "3..", "x..y", ""):
            code, _, err = run(capsys, ["dmax", bad])
            assert code == 2, bad
            assert err == f"dmax: invalid genus range {bad!r} (need 1 <= a <= b)\n", bad

    def test_schema_flag(self, capsys):
        code, out, _ = run(capsys, ["dmax", "--schema"])
        assert code == 0
        assert json.loads(out)["$id"] == "agdim.dmax-table/1"

    def test_blocks_join_exactly(self, capsys, monkeypatch):
        # more rows than one block, so the blocks' seams are in the output
        monkeypatch.setattr(cli, "_BLOCK", 7)
        _, out, _ = run(capsys, ["dmax", "15..31", "--format", "json"])
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert doc["values"] == [{"g": g, "dmax": dmax(g)} for g in range(15, 32)]
        _, out, _ = run(capsys, ["dmax", "15..31", "--format", "csv"])
        assert out == "g,dmax\n" + "".join(f"{g},{dmax(g)}\n" for g in range(15, 32))
        _, out, _ = run(capsys, ["dmax", "15..31", "--timestamp"])
        lines = out.split("\n")
        assert lines[2:19] == [f"| {g} | {dmax(g)} |" for g in range(15, 32)]
        assert lines[19] == "" and lines[20].startswith("generated at ")

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    def test_python_ints_past_kernel_ceiling(self, capsys, fmt):
        # hi > kernels.MAX_SAFE_G, so the rows come from Python ints, not the kernel
        lo, hi = kernels.MAX_SAFE_G - 1, kernels.MAX_SAFE_G + 1
        rows = [(g, dmax(g)) for g in range(lo, hi + 1)]
        code, out, _ = run(capsys, ["dmax", f"{lo}..{hi}", "--format", fmt])
        assert code == 0
        if fmt == "markdown":
            assert out.splitlines()[2:] == [f"| {g} | {v} |" for g, v in rows]
        elif fmt == "csv":
            assert out.splitlines()[1:] == [f"{g},{v}" for g, v in rows]
            assert out.endswith("\n4000000001,1000000000000000000\n")
        else:
            assert json.loads(out)["values"] == [{"g": g, "dmax": v} for g, v in rows]

    def test_memory_bounded(self, tmp_path):
        # 2M rows: holding every row and the whole text first peaked at about
        # 560 MB (markdown, csv) and 1.8 GB (json); blocks keep it flat.
        script = "from agdim import cli\ncode = 0\n"
        for fmt in ("markdown", "csv", "json"):
            target = str(tmp_path / f"dmax.{fmt}")
            script += f"code |= cli.main(['dmax', '1..2000000', '--format', {fmt!r}, '--out', {target!r}])\n"
        code, peak_kb, _ = run_child(script)
        assert code == 0
        assert (tmp_path / "dmax.csv").read_text().endswith(f"\n2000000,{dmax(2_000_000)}\n")
        assert peak_kb < 100 * 1024

    @pytest.mark.parametrize(
        "argv",
        [["dmax", "5"], ["verify", "claim-F"], ["catalog", "--rep-max", "8"], ["explain", "16"]],
    )
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, [*argv, "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"{argv[0]}: cannot write --out {target}: ")
        assert not target.parent.exists()


class TestTablesCommand:
    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, ["tables", "--check"])
        assert code == 0
        assert "fixture check passed" in out

    def test_check_fails_on_tampered_fixture(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setitem(tables_mod.FIXTURE_AG["dmc_ag"], 18, (21, "exact"))
        code, out, _ = run(capsys, ["tables", "--check"])
        assert code == 1
        assert "row dmc_ag, g=18" in out
        assert out.endswith("\nfixture check FAILED: 1 cell mismatch(es)\n")
        target = tmp_path / "check.txt"
        assert run(capsys, ["tables", "--check", "--out", str(target)]) == (1, "", "")
        assert target.read_text(encoding="utf-8") == out

    def test_markdown_header(self, capsys):
        code, out, _ = run(capsys, ["tables", "--table", "ag"])
        assert code == 0
        for g in (3, 4, 5, 6, 15, 16, 17, 18, 100):
            assert f"g={g}" in out

    def test_json_schema_valid(self, capsys):
        code, out, _ = run(capsys, ["tables", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, TABLES_DOCUMENT_SCHEMA)
        assert [t["name"] for t in doc["tables"]] == ["ag", "mg"]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["tables", "--format", "json"])
        _, second, _ = run(capsys, ["tables", "--format", "json"])
        assert first == second

    def test_timestamp_opt_in(self, capsys):
        _, out, _ = run(capsys, ["tables", "--format", "json", "--timestamp"])
        assert "generated_at" in json.loads(out)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "tables.csv"
        code, out, _ = run(capsys, ["tables", "--format", "csv", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("g,")

    def test_conjectural_flag(self, capsys):
        code, out, _ = run(capsys, ["tables", "--table", "mg", "--conjectural"])
        assert code == 0
        assert "CONJECTURAL" in out

    def test_mgct_self_check_exits_one(self, capsys, monkeypatch):
        # a wrong boundary-recursion value must stop the check, not pass it
        table = list(moduli._MGCT_TABLE)
        table[15 - 2] += 1  # g = 15 is a column of the M_g table
        monkeypatch.setattr(moduli, "_MGCT_TABLE", tuple(table))
        code, out, err = run(capsys, ["tables", "--check"])
        assert (code, out) == (1, "")
        assert err == (
            "tables: internal self-check failed: the boundary recursion returned "
            "21 for g=15 but the closed form gives 20\n"
        )


class TestVerifyCommand:
    def test_pass_report(self, capsys):
        code, out, _ = run(capsys, ["verify", "lemma-N", "--sum-max", "24"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, VERIFICATION_REPORT_SCHEMA)
        assert doc["status"] == "pass"
        assert doc["range"] == {"sum_max": 24, "pair_max": 200}

    def test_unknown_claim_usage_error(self, capsys):
        code, _, err = run(capsys, ["verify", "lemma-nonsense"])
        assert code == 2

    def test_ceiling_enforced(self, capsys):
        code, _, err = run(capsys, ["verify", "lemma-N", "--sum-max", "500"])
        assert code == 2
        assert "ceiling" in err

    def test_unsafe_flag_lifts_ceiling(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "claim-F", "--k-max", "1500", "--unsafe-no-ceiling",
             "--s-max", "8", "--delta-max", "8", "--n-max", "8"],
        )
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    @pytest.mark.parametrize(
        "claim, flag, limit, kernel",
        [
            ("dmax-piecewise", "--g-max", kernels.MAX_SAFE_PIECEWISE_G, "piecewise_mismatches"),
            ("f-bounds", "--n-max", kernels.MAX_SAFE_N, "f_bound_violations"),
            ("lemma-dmax", "--g-max", kernels.MAX_SAFE_G, "dmax_values"),
            ("prop-estimate", "--g-max", kernels.MAX_SAFE_G, "best_indec_table"),
            ("lemma-N", "--pair-max", kernels.MAX_SAFE_PAIR_B, "pair_efficiency_mismatches"),
            ("claim-F", "--s-max", pairs.MAX_SAFE_CLAIM_F, "division_rank2_pairs"),
            ("claim-F", "--delta-max", pairs.MAX_SAFE_CLAIM_F, "division_rank1_pairs"),
            ("remark-domination", "--r-max", pairs.MAX_SAFE_REMARK, "unitary_pairs"),
            ("remark-domination", "--k-max", pairs.MAX_SAFE_REMARK, "orthogonal_star_pairs"),
            # dmax_values(k * rep_dim): the product of the two limits is at
            # most MAX_SAFE_G
            ("cor-decoupled", "--rep-max", 2**16, "dmax_values"),
            ("cor-decoupled", "--k-max", kernels.MAX_SAFE_G // 2**16, "dmax_values"),
        ],
    )
    def test_kernel_ceiling_usage_error(self, capsys, monkeypatch, claim, flag, limit, kernel):
        calls = []
        owner = kernels if hasattr(kernels, kernel) else pairs
        monkeypatch.setattr(owner, kernel, lambda *args: calls.append(args))
        code, out, err = run(
            capsys, ["verify", claim, flag, str(limit + 1), "--unsafe-no-ceiling"]
        )
        assert code == 2
        assert out == ""
        assert "int64-safe kernel ceiling" in err
        assert calls == []  # refused before the first block

    @pytest.mark.parametrize(
        "claim, kernel",
        [
            ("lemma-dmax", "dmax_values"),
            ("prop-estimate", "best_indec_table"),
            ("lemma-N", "pair_efficiency_mismatches"),
            ("cor-decoupled", "family_grid"),
            ("remark-domination", "orthogonal_star_pairs"),
        ],
    )
    def test_memory_budget_usage_error(self, capsys, monkeypatch, claim, kernel):
        # --unsafe-no-ceiling lifts the ceiling, not the memory check.  The
        # budget is patched, so the refused range is never allocated.
        calls = []
        owner = next(m for m in (kernels, pairs, satake) if hasattr(m, kernel))
        monkeypatch.setattr(owner, kernel, lambda *args: calls.append(args))
        verifier = verify.REGISTRY[claim]
        flag, size = SIZED_CLAIMS[claim]
        key = next(p.keyword for p in verifier.params if p.name == flag)
        at = {p.keyword: p.default for p in verifier.params} | {key: size}
        monkeypatch.setattr(verify, "_memory_budget", lambda: verifier.peak_bytes(**at))
        code, out, err = run(capsys, ["verify", claim, flag, str(size + 1), "--unsafe-no-ceiling"])
        assert (code, out, calls) == (2, "", [])  # refused before the first allocation
        given = " ".join(f"{p.name}={at[p.keyword] + (p.keyword == key)}" for p in verifier.params)
        assert err.startswith(f"verify: {given} needs about ")
        assert err.endswith("no flag lifts it\n") and err.count("\n") == 1
        with pytest.raises(verify.CeilingExceeded):
            verify.run_verifier(claim, {key: size + 1}, unsafe_no_ceiling=True)
        assert verify.range_args(claim, {key: size}, unsafe_no_ceiling=True) == at

    @pytest.mark.parametrize(
        "claim, g_max, chunk, per_genus",
        [
            # one chunk: 32.05 while the table build kept its own temporaries,
            # 28.6 through the chunk walk, where the scan sets the peak
            pytest.param("lemma-dmax", 20_000, kernels.CHUNK, 30, id="lemma-dmax-20000"),
            # a table of five chunks, as past CHUNK genera: the scan sets the peak
            pytest.param("lemma-dmax", 20_000, 4096, 29, id="lemma-dmax-20000-chunk-4096"),
            pytest.param("prop-estimate", 1_000_000, kernels.CHUNK, 17, id="prop-estimate-1000000"),
            # one chunk, whose buffers span the range: 35.0 when each chunk
            # allocated its own temporaries, 27.0 through reused buffers
            pytest.param("prop-estimate", kernels.CHUNK, kernels.CHUNK, 28, id="prop-estimate-one-chunk"),
        ],
    )
    def test_bytes_per_genus_covers_peak(self, monkeypatch, claim, g_max, chunk, per_genus):
        # Passing runs keep their own tight bounds, below the figures, which
        # also cover failing runs.
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        tracemalloc.start()
        try:
            report = verify.run_verifier(claim, {"g_max": g_max})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and peak <= per_genus * g_max

    @pytest.mark.parametrize(
        "claim, overrides",
        [("lemma-N", {"sum_max": 24, "pair_max": 4000}), ("cor-decoupled", {"rep_max": 512})],
        ids=["lemma-N", "cor-decoupled"],
    )
    def test_peak_bytes_covers_peak(self, monkeypatch, claim, overrides):
        # A smaller pair block, so that lemma-N's blocks are single rows of
        # pair_max, as past 2^14, at a size that runs in well under a second.
        monkeypatch.setattr(kernels, "PAIR_BLOCK", 1024)
        tracemalloc.start()
        try:
            report = verify.run_verifier(claim, overrides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        figure = verify.REGISTRY[claim].peak_bytes(**verify.range_args(claim, overrides))
        assert report.passed and peak <= figure

    @pytest.mark.parametrize("block", [1024, kernels.PAIR_BLOCK])
    def test_failing_lemma_n_peak_bytes_covers_peak(self, monkeypatch, block):
        # The closed criterion negated, so every cell of the triangle fails:
        # the kernel counts them and keeps the first MAX_LISTED, so a failing
        # run needs no more than a passing one.
        monkeypatch.setattr(kernels, "PAIR_BLOCK", block)
        real = kernels._two_element_efficient
        monkeypatch.setattr(kernels, "_two_element_efficient", lambda a, b: ~real(a, b))
        overrides = {"sum_max": 24, "pair_max": 4000}
        tracemalloc.start()
        try:
            report = verify.run_verifier("lemma-N", overrides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        window = report.details["two_element_window"]["mismatches"]
        assert window == [[2, b] for b in range(2, 2 + MAX_LISTED)]
        assert peak <= verify.REGISTRY["lemma-N"].peak_bytes(**verify.range_args("lemma-N", overrides))

    def test_failing_prop_estimate_bytes_per_genus_covers_peak(self, monkeypatch):
        # Every genus off the equality set exceeds dmax by one, so about half
        # the range fails while the equality set is unchanged.  Keeping every
        # failing genus until the end peaked at 28.3 bytes per genus, and
        # sorting the found and stated equality genera together at 21.1.
        g_max = 200_000
        table = kernels.best_indec_table(g_max)
        dm = kernels.dmax_values(np.arange(1, g_max + 1, dtype=np.int64))
        table[1:] = np.where(table[1:] == dm, dm, dm + 1)
        del dm
        monkeypatch.setattr(kernels, "best_indec_table", lambda n: table.copy())
        tracemalloc.start()
        try:
            report = verify.run_verifier("prop-estimate", {"g_max": g_max})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.to_dict()["details"]["counterexamples_total"] == 100_005
        assert peak <= 18 * g_max

    @pytest.mark.parametrize(
        "claim, kernel, fault, g_max",
        [
            # no genus attains dmax, so the equality set is empty
            ("prop-estimate", "best_indec_table", lambda real, n: real(n) + 10**6, 200_000),
            # every genus attains dmax; sorting the found and stated genera
            # together peaked at 84 bytes per genus
            ("prop-estimate", "best_indec_table", lambda real, n: kernels._dmax(np.arange(n + 1)), 200_000),
            # every pair is an equality, all g_max of the first row among them
            ("lemma-dmax", "dmax_values", lambda real, gs: np.zeros_like(gs), 10_000),
        ],
        ids=["prop-estimate", "prop-estimate-all-equal", "lemma-dmax"],
    )
    def test_peak_bytes_covers_failing_peak(self, monkeypatch, claim, kernel, fault, g_max):
        real = getattr(kernels, kernel)
        monkeypatch.setattr(kernels, kernel, lambda x: fault(real, x))
        tracemalloc.start()
        try:
            report = verify.run_verifier(claim, {"g_max": g_max})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.passed and peak <= verify.REGISTRY[claim].peak_bytes(g_max=g_max)

    @pytest.mark.parametrize("fault", [None, "undominated II"])
    @pytest.mark.parametrize("r_max, k_max", [(4096, 2), (5, 1 << 14), (64, 64), (256, 256)])
    def test_remark_peak_bytes_covers_peak(self, monkeypatch, r_max, k_max, fault):
        # Its witness list grows with r_max, a row wider than a block with
        # k_max, and 64/64 and 256/256 are one block of 3969 cells and
        # blocks of 16320; under the fault every family II row misses its
        # witness at every k.
        if fault:
            _undominated_family_ii(monkeypatch)
        overrides = {"r_max": r_max, "k_max": k_max}
        tracemalloc.start()
        try:
            report = verify.run_verifier("remark-domination", overrides, unsafe_no_ceiling=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed is (fault is None)
        assert peak <= verify.REGISTRY["remark-domination"].peak_bytes(**overrides)

    @pytest.mark.parametrize("size", [64, 1024, pairs.MAX_SAFE_CLAIM_F])
    def test_claim_f_peak_set_by_its_block(self, size):
        # claim-F holds one block of about kernels.PAIR_BLOCK cells at a
        # time, and the equalities it keeps: 0.31 MB at the default, where
        # one block is the whole range, and 1.06-1.17 MB from 1024 to the
        # int64 limit.
        tracemalloc.start()
        try:
            report = verify.run_verifier(
                "claim-F", {"s_max": size, "delta_max": size}, unsafe_no_ceiling=True
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and peak <= 96 * kernels.PAIR_BLOCK

    def test_failing_claim_f_peak_set_by_its_block(self, monkeypatch):
        # Every rank-1 cell ties with its witness.  Keeping every tie for the
        # equality-set check peaked at 60 MB at 1024; the check keeps
        # MAX_LISTED + 2 of them, so a failing run stays within a passing
        # run's bound.
        _tie_every_rank1_cell(monkeypatch)
        tracemalloc.start()
        try:
            report = verify.run_verifier(
                "claim-F", {"s_max": 1024, "delta_max": 1024}, unsafe_no_ceiling=True
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.passed and peak <= 96 * kernels.PAIR_BLOCK

    def test_claims_without_peak_bytes(self):
        # A claim states no memory figure only for a reason, given here:
        assert {c for c, v in verify.REGISTRY.items() if v.peak_bytes is None} == {
            "dmax-piecewise",  # block buffers of kernels.CHUNK values, whatever the range
            "f-bounds",  # block buffers of kernels.CHUNK values, whatever the range
            "claim-F",  # blocks of kernels.PAIR_BLOCK cells, whatever the range
            "cor-C",  # a fixed range, g <= 23
        }

    def test_wrong_flag_for_claim(self, capsys):
        code, _, err = run(capsys, ["verify", "lemma-dmax", "--sum-max", "30"])
        assert code == 2
        assert "does not take" in err

    @pytest.mark.parametrize(
        "claim, flag, kernel",
        [
            ("dmax-piecewise", "--g-max", "piecewise_mismatches"),
            ("f-bounds", "--n-max", "f_bound_violations"),
        ],
    )
    def test_pool_output_independent_of_workers(self, capsys, monkeypatch, claim, flag, kernel):
        # One kernel call per worker, whose blocks tile the range exactly.
        spied = getattr(kernels, kernel)
        outs = {}
        for workers in (1, 4):
            calls = []
            monkeypatch.setattr(verify, "_WORKERS", workers)
            monkeypatch.setattr(
                kernels, kernel, lambda lo, hi: calls.append((lo, hi)) or spied(lo, hi)
            )
            code, outs[workers], _ = run(capsys, ["verify", claim, flag, "2500000"])
            assert code == 0
            calls.sort()
            assert len(calls) == workers
            assert calls[0][0] == {"piecewise_mismatches": 1, "f_bound_violations": 2}[kernel]
            assert calls[-1][1] == 2500000
            assert all(prev[1] + 1 == nxt[0] for prev, nxt in zip(calls, calls[1:]))
        assert outs[1] == outs[4]

    def test_lemma_dmax_one_serial_scan(self, capsys, monkeypatch):
        spied = kernels.superadditivity_scan
        calls = []

        def spy(D):
            calls.append(len(D))
            return spied(D)

        monkeypatch.setattr(verify, "_WORKERS", 4)
        monkeypatch.setattr(kernels, "superadditivity_scan", spy)
        code, out, _ = run(capsys, ["verify", "lemma-dmax", "--g-max", "600"])
        assert code == 0
        assert json.loads(out)["status"] == "pass"
        assert calls == [601]  # one call, on the whole table

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        def fake_run_verifier(claim, **kwargs):
            return VerificationReport(
                claim=claim,
                range={},
                counterexamples=[{"g": 1}],
            )

        monkeypatch.setattr(cli, "run_verifier", fake_run_verifier)
        code, out, _ = run(capsys, ["verify", "lemma-dmax"])
        assert code == 1
        assert json.loads(out)["status"] == "fail"

    def test_schema_flag(self, capsys):
        code, out, _ = run(capsys, ["verify", "--schema"])
        assert code == 0
        assert json.loads(out)["$id"] == "agdim.verification-report/1"

    @pytest.mark.parametrize("flags", [["dmax-piecewise", "--g-max", "16000000"], ["f-bounds", "--n-max", "24000000"]])
    def test_blocked_scan_memory_bounded(self, flags):
        # Each kernel call reuses a few chunk-sized buffers.  Whole 2M-value
        # blocks with a fresh array per step peaked at 259 MB and 177 MB.
        code, peak_kb, out = run_child(f"from agdim import cli\ncode = cli.main(['verify', *{flags!r}])\n")
        assert (code, json.loads(out)["status"]) == (0, "pass")
        assert peak_kb < 100 * 1024

    def test_verify_refuses_out_before_work(self, capsys, monkeypatch, tmp_path):
        # The path was opened only after the scan: 2.8 s at this size.
        calls = []
        for name in ("dmax_values", "superadditivity_scan"):
            monkeypatch.setattr(kernels, name, lambda *args, name=name: calls.append(name))
        target = tmp_path / "missing" / "x.json"
        argv = ["verify", "lemma-dmax", "--g-max", "100000", "--out", str(target)]
        code, out, err = run(capsys, argv)
        assert (code, out, calls) == (2, "", [])
        assert err.startswith(f"verify: cannot write --out {target}: ")

    def test_admitted_once(self, capsys, monkeypatch):
        # The check before --out opens is the only one: run_verifier takes
        # the arguments it admitted.
        real = verify.admit
        calls = []
        monkeypatch.setattr(verify, "admit", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
        code, out, _ = run(capsys, ["verify", "lemma-dmax", "--g-max", "40"])
        assert (code, json.loads(out)["range"], calls) == (0, {"g_max": 40}, ["lemma-dmax"])

    def test_verify_usage_error_keeps_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("kept\n")
        for bad in (["--g-max", "10000001"], ["--n-max", "5"]):
            code, _, err = run(capsys, ["verify", "lemma-dmax", *bad, "--out", str(target)])
            assert code == 2 and err.startswith("verify: "), bad
            assert target.read_text() == "kept\n"
        code, out, _ = run(capsys, ["verify", "lemma-dmax", "--g-max", "40", "--out", str(target)])
        assert (code, out) == (0, "")
        assert json.loads(target.read_text())["status"] == "pass"


# claim -> (the flag its peak_bytes grows with, a size it is measured at)
SIZED_CLAIMS = {
    "lemma-dmax": ("--g-max", 10**6),
    "prop-estimate": ("--g-max", 10**6),
    "lemma-N": ("--pair-max", 10**6),
    "cor-decoupled": ("--rep-max", 10**4),
    "remark-domination": ("--r-max", 10**5),
}


def _bump_dmax(mp):
    real = kernels.dmax_values
    mp.setattr(kernels, "dmax_values", lambda gs: real(gs) + 1)


# claim -> (its range flag, its chunked kernel, the helper a fault is raised in)
CHUNKED_CLAIMS = {
    "dmax-piecewise": ("--g-max", "piecewise_mismatches", "_dmax"),
    "f-bounds": ("--n-max", "f_bound_violations", "half_products"),
}


def _raise_helper(helper, at=lambda xs: 1):
    # Raise the value of a chunked kernel's helper by one: at every value, or
    # where ``at`` holds.  Every genus fails dmax-piecewise (``_dmax``), and
    # every n fails the upper side of f-bounds (``half_products``).
    def inject(mp):
        real = getattr(kernels, helper)
        mp.setattr(kernels, helper, lambda xs, out, tmp: real(xs, out, tmp) + at(xs))

    return inject


def _negate_closed_form(mp):
    real = efficiency.closed_form_efficient
    mp.setattr(efficiency, "closed_form_efficient", lambda *args: not real(*args))


def _extra_equality(mp):
    # (s, delta) = (2, 2) becomes (4, 8), equal to its witness unitary_pair(2, 4)
    real = pairs.division_rank1_pairs

    def fake(s, deltas):
        d, g = real(s, deltas)
        at = (deltas == 2) & (s == 2)
        return np.where(at, 4, d), np.where(at, 8, g)

    mp.setattr(pairs, "division_rank1_pairs", fake)


def _tie_every_rank1_cell(mp):
    # every I_nc1 pair equals its designated witness unitary_pair(2, s delta^2 // 2)
    mp.setattr(pairs, "division_rank1_pairs", lambda s, delta: pairs.unitary_pairs(2, s * delta**2 // 2))


def _bump_best_pair(mp):
    real = kernels.best_indec_table
    mp.setattr(kernels, "best_indec_table", lambda g_max: real(g_max) + 1)


def _undominated_family_ii(mp):
    mp.setattr(pairs, "orthogonal_star_pairs", lambda k, r: (np.full_like(k, 10**6), 2 * r * k))


def _huge_rank2(mp):
    real = pairs.division_rank2_pairs

    def fake(s, deltas):
        d, g = real(s, deltas)
        return np.full_like(d, 10**9), g

    mp.setattr(pairs, "division_rank2_pairs", fake)


def _failing_mgct(mp):
    def boom(g):
        raise RuntimeError(f"self-check failed at g={g}")

    mp.setattr(verify, "dmc_mgct", boom)


def _zero_dmax(mp):
    mp.setattr(kernels, "dmax_values", lambda gs: np.zeros_like(gs))


def _both_claim_f_faults(mp):
    _huge_rank2(mp)
    _extra_equality(mp)


def _lemma_n_margin_7(mp):
    mp.setattr(efficiency, "MAX_SUM_OUTSIDE_UNBOUNDED", 7)


def _bump_best_pair_chunk_11(mp):
    _bump_best_pair(mp)
    mp.setattr(kernels, "CHUNK", 11)


def _best_pair_plus_million(mp):
    real = kernels.best_indec_table
    mp.setattr(kernels, "best_indec_table", lambda g_max: real(g_max) + 10**6)


def _ramp_dmax(mp):
    # max(g - 16, 0) is superadditive, equal on every pair with g1 + g2 <= 16
    # and strict at every (1, g2 >= 16): both equality lists pass the cap
    mp.setattr(kernels, "dmax_values", lambda gs: np.maximum(gs - 16, 0))


def _shift_dmax_equalities(mp):
    # Raised at 17, 21, 25, ..., so (1, g2) is strict at g2 = 0 mod 4; lowered
    # at 11 and 15, so every pair summing to them becomes an equality
    real = kernels.dmax_values
    mp.setattr(kernels, "dmax_values", lambda gs: real(gs) + ((gs % 4 == 1) & (gs >= 17)) - np.isin(gs, (11, 15)))


def _best_pair_off_the_rule(mp):
    # Equal to dmax at every multiple of 3 and below it at the other
    # multiples of 4; nowhere above it
    real = kernels.best_indec_table

    def table(g_max):
        g = np.arange(g_max + 1)
        dm = np.concatenate(([0], kernels.dmax_values(g[1:])))
        return np.select([g % 3 == 0, g % 4 == 0], [dm, dm - 1], real(g_max))

    mp.setattr(kernels, "best_indec_table", table)


def _best_pair_off_the_rule_chunk_11(mp):
    _best_pair_off_the_rule(mp)
    mp.setattr(kernels, "CHUNK", 11)


def _mgct_off_by_one_at_10(mp):
    real = verify.dmc_mgct
    mp.setattr(verify, "dmc_mgct", lambda g: replace(real(g), exact=real(g).exact + 1) if g == 10 else real(g))


def _interior_fails_at_9(mp):
    mp.setattr(verify, "mgct_interior_bound_holds", lambda g: g != 9)


# One wrong input per claim, at a tiny range; every verifier must report it.
FAILURES = {
    "lemma-dmax": (["--g-max", "40"], _bump_dmax),
    "dmax-piecewise": (["--g-max", "100"], _raise_helper("_dmax")),
    "f-bounds": (["--n-max", "100"], _raise_helper("half_products")),
    "lemma-N": (["--sum-max", "10", "--pair-max", "10"], _negate_closed_form),
    "claim-F": (
        ["--s-max", "4", "--delta-max", "4", "--k-max", "4", "--n-max", "4"],
        _extra_equality,
    ),
    "prop-estimate": (["--g-max", "40"], _bump_best_pair),
    "remark-domination": (["--r-max", "6", "--k-max", "3"], _undominated_family_ii),
    "cor-C": ([], _failing_mgct),
    "cor-decoupled": (["--rep-max", "8", "--k-max", "3"], _zero_dmax),
}


class TestVerifierFailures:
    def test_every_claim_covered(self):
        assert sorted(FAILURES) == sorted(verify.REGISTRY)

    @pytest.mark.parametrize("claim", list(FAILURES))
    def test_failure_reported_not_raised(self, capsys, monkeypatch, claim):
        flags, inject = FAILURES[claim]
        inject(monkeypatch)
        code, out, _ = run(capsys, ["verify", claim, *flags])
        doc = json.loads(out)
        jsonschema.validate(doc, VERIFICATION_REPORT_SCHEMA)
        assert code == 1
        assert doc["status"] == "fail"
        assert 1 <= len(doc["counterexamples"]) <= MAX_LISTED

    @pytest.mark.parametrize("claim", ["dmax-piecewise", "f-bounds"])
    def test_counterexamples_capped(self, capsys, monkeypatch, claim):
        flags, inject = FAILURES[claim]
        inject(monkeypatch)
        _, out, _ = run(capsys, ["verify", claim, *flags])
        doc = json.loads(out)
        assert len(doc["counterexamples"]) == MAX_LISTED
        # every value of the range fails: 1..100 and 2..100
        assert doc["details"]["counterexamples_total"] == {"dmax-piecewise": 100, "f-bounds": 99}[claim]

    @pytest.mark.parametrize(
        "claim, every, digest",
        [
            ("dmax-piecewise", 1, "254800ce611cb5011ab049c6b86149d0fe0619c6548b2eddbb81e82ca98b12a0"),
            ("f-bounds", 1, "dba1c10e9e499f0313a870cbc206e29cf215ab477df1e9d0ba0ce50bc6006cd2"),
            ("dmax-piecewise", 37, "84a1b9426d016363d3c5dd01b529b181816ccecbceb58808fae87345d6874d44"),
            ("f-bounds", 37, "e88363b5f2bce29161f2adc43de421f9065b9ff1ea58678fff9e179b859def44"),
        ],
    )
    def test_blocks_list_at_most_max_listed(self, capsys, monkeypatch, claim, every, digest):
        # Blocks of about 1250 values, failing at every value, or at every
        # 37th so that the listed values span two blocks.  Each block returns
        # its count and at most MAX_LISTED values, and the report is byte
        # for byte what returning every failing value gave.
        flag, kernel, helper = CHUNKED_CLAIMS[claim]
        _raise_helper(helper, at=lambda xs: xs % every == 3 % every)(monkeypatch)
        monkeypatch.setattr(verify, "_WORKERS", 4)
        spied, returned = getattr(kernels, kernel), []
        monkeypatch.setattr(kernels, kernel, lambda lo, hi: returned.append(spied(lo, hi)) or returned[-1])
        code, out, _ = run(capsys, ["verify", claim, flag, "5000"])
        assert code == 1 and len(returned) >= 4
        assert all(len(f.listed) == min(f.total, MAX_LISTED) for f in returned)
        assert sum(f.total for f in returned) == json.loads(out)["details"]["counterexamples_total"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "claim, flags, inject, digest",
        [
            (
                "claim-F", FAILURES["claim-F"][0], _extra_equality,
                "d8471820554dec267f8124936c667c604a57ff49ea1b35a40e6f06dd0a7764a1",
            ),
            (
                "remark-domination", FAILURES["remark-domination"][0], _undominated_family_ii,
                "74b6de91c4f71ee872e876770dbc9bd90db1ae506df5e7e42861511ae0e9c717",
            ),
            (
                "claim-F", ["--s-max", "40", "--delta-max", "40", "--k-max", "8", "--n-max", "8"],
                _huge_rank2,
                "413370cde3075737216d7a3da88390987f2628eb96fd869e052ccc9d6d4b5e2c",
            ),
            (
                "remark-domination", ["--r-max", "40", "--k-max", "40"], _undominated_family_ii,
                "643c5347c3c0eb87544c322cb77a70affceaf012333e1bba7f7ba0a36063a5ec",
            ),
            (
                "lemma-dmax", *FAILURES["lemma-dmax"],
                "b5cf1f28432a7c38a3fbb1b973b197e68d15e51dbd18ec26cb6b3817cbcba0c8",
            ),
            (
                "dmax-piecewise", *FAILURES["dmax-piecewise"],
                "1d98490b3c60fe646b8e86a8ec9e30d82de3456b0bcd0ebd95132a37c9ffb5e8",
            ),
            (
                "f-bounds", *FAILURES["f-bounds"],
                "663fef813e54f73db064ae65d22ded7013ddcb9c9f0c7e02906a89e9558f2438",
            ),
            (
                "lemma-N", *FAILURES["lemma-N"],
                "b4e52c93b9575935aeb8e02233dd01f375fb7350bab94462c5ff3437b755de72",
            ),
            (
                "prop-estimate", *FAILURES["prop-estimate"],
                "2219380bc19c80ae866c2f55e2937af586a14de00c6fdd9ff84c3a8912b7d856",
            ),
            (
                "cor-C", *FAILURES["cor-C"],
                "08973e858711aaa556a527b4353361cb88a30e8d9d97466699b829ad7f609d6e",
            ),
            (
                "cor-decoupled", *FAILURES["cor-decoupled"],
                "dc3f31cb2591bc6c0b467e88a030831008194d1e5652a11b4190f07463eac9c4",
            ),
            (
                "lemma-dmax", ["--g-max", "400"], _zero_dmax,
                "1c721687f8f1d30dcee067aa25400cb1946dc1380b1e7fe84fa89a04f644d0a7",
            ),
            (
                "dmax-piecewise", ["--g-max", "300000"], _raise_helper("_dmax", at=lambda xs: xs % 1001 == 7),
                "17fa9f480a4fa41a65bc1b1caae5f779b0b48b17ed484705d070afbff3410504",
            ),
            (
                "lemma-N", ["--sum-max", "14", "--pair-max", "30"], _negate_closed_form,
                "ecc582d9952c954070daf0dd6c88b125d26f201be4b1e5ac73618f427a1ebdbd",
            ),
            (
                "lemma-N", ["--sum-max", "20", "--pair-max", "10"], _lemma_n_margin_7,
                "f854044a531b4c18f5c4a2fc7121304a61cac955294c16d6adb4fff6585eac90",
            ),
            (
                "claim-F", ["--s-max", "40", "--delta-max", "40", "--k-max", "8", "--n-max", "8"],
                _both_claim_f_faults,
                "0e2bcd8e5c88cd3c56eb106f2046dcf10f16c9e81f9c61fcfab80ed327f3af9e",
            ),
            (
                "prop-estimate", ["--g-max", "100"], _bump_best_pair_chunk_11,
                "1479d9a51c61e9ad1e3839539d6f257130c62681129d672dce9bcec14cf55aeb",
            ),
            (
                "prop-estimate", ["--g-max", "200000"], _best_pair_plus_million,
                "2befb77f896ab566e1b1c87ea07f4a9d12e7f939b259fcb60d3b359bded0a529",
            ),
            (
                "cor-C", [], _mgct_off_by_one_at_10,
                "fb9e9f30b57b84d6b467a0a1a3893f1c1bb1934a4ed5fb305d00f548d9258087",
            ),
            (
                "cor-C", [], _interior_fails_at_9,
                "9134b049760e14e43036ba62a2d979fc956ac0383d1169e123a7b40836203533",
            ),
            (
                "cor-decoupled", ["--rep-max", "64", "--k-max", "6"], _zero_dmax,
                "63202e5f450837ac161c7408908d57d14ebd8e26d620268ea921f5a88fb3be8c",
            ),
            (
                "lemma-dmax", ["--g-max", "400"], _ramp_dmax,
                "4c823c600a0a0a3ca42744250758442ac5c0e477622672a37a5e457f3f87dc87",
            ),
            (
                "lemma-dmax", ["--g-max", "400"], _shift_dmax_equalities,
                "5ba0fdaa9ca9c0f8a1eac79941e77a5b813b058b49447f8ae4d3b598a6e1976f",
            ),
            (
                "prop-estimate", ["--g-max", "400"], _best_pair_off_the_rule,
                "79f7b6865d987377da9cf85cb7eced4aef6ad86328ca8eee23aca2bc0744067d",
            ),
            (
                "prop-estimate", ["--g-max", "300"], _best_pair_off_the_rule_chunk_11,
                "699f55a7fb18cf19d82d759cfb0c502c136afecb01774ca05c85542fa6e00271",
            ),
        ],
    )
    def test_failing_stdout_unchanged(self, capsys, monkeypatch, claim, flags, inject, digest):
        # The first four were recorded with the per-n Python-int searches,
        # before the closed-form smallest dominating n replaced them; the rest
        # with each verifier keeping its own tally of unlisted failures,
        # before the report's one listing rule replaced them; the last four,
        # two-sided lemma-dmax and prop-estimate pins, with the found and
        # stated equality sets sorted together, before each claim checked
        # its set against its rule.
        inject(monkeypatch)
        code, out, _ = run(capsys, ["verify", claim, *flags])
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "inject, size, digest",
        [
            (_tie_every_rank1_cell, 64, "8308a80b39215e4fd64168728970838d99f73f091156600c5b15ac3e9fb5f4fc"),
            (_tie_every_rank1_cell, 256, "f8280c4c31ccd1a5625ffb2f31df40ceee453ed195f3907365e87ef5360d03c3"),
            (_extra_equality, 64, "b8ca5c63fbe767c45e00366bbad79e16c5598844f5836ee208893d9f2135abd3"),
            (_extra_equality, 256, "24c6272ff6398f06b1a24f2b3804201cb027a22f8c0f7a42717475356fca7bc6"),
        ],
    )
    def test_claim_f_equality_set_report_unchanged(self, monkeypatch, inject, size, digest):
        # Recorded while the equality-set check kept every tie pair, before
        # it kept the MAX_LISTED + 2 smallest.
        inject(monkeypatch)
        doc = verify.run_verifier("claim-F", {"s_max": size, "delta_max": size}).to_dict()
        assert doc["status"] == "fail"
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "g, delta, code, digest",
        [
            (33, -1, 1, "ba88693df31759ff6cc30485ce8b7574bd96370186e74edbd9f040065fd98623"),
            (64, 1, 1, "b97a41bec1b731b5012eda4029c57193737863b31c22d3d761630061c99d673c"),
            (96, 100, 1, "0d3c9bd44dd2a3797ae22eb9ea33d6f093a370448b4786f9187ed1e8613bc9db"),
            # too small to break a pair: the passing default's stdout
            (4000, -2, 0, "2e3a0bcb74a59d922c3ffcdf0da1b8285590af9e3e36f5fc1f25daf1a0caf1b1"),
            (4000, -1000, 1, "16b89f414cc24b2d40909625d3acde84b76ed7ccf70095138f2f6a9bcb527563"),
            (4000, -1001, 1, "de0f87dd86ad77d0e2645b9557e957525bd37be18f89b847bfdfdf4c2a67ca6b"),
        ],
    )
    def test_lemma_dmax_block_edge_fault_stdout(self, capsys, monkeypatch, g, delta, code, digest):
        # dmax moved at one genus: past the whole rows (33), at a band edge
        # (64), at a block edge of the next band (96) and in the last block
        # (4000).  Recorded with the flat row scan, before block bounds
        # cleared most rows.
        real = kernels.dmax_values
        monkeypatch.setattr(kernels, "dmax_values", lambda gs: real(gs) + delta * (gs == g))
        got, out, _ = run(capsys, ["verify", "lemma-dmax", "--g-max", "4000"])
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_catalog_labels_across_family_i_pieces(self, capsys, monkeypatch):
        # At rep_max 300 family I comes in several pieces (n = 200 is in the
        # third).  Wrong bounds at three values of k * rep_dim list cases from
        # the first and a later piece of family I and from the families after
        # it, up to the last one, IV2.  Recorded with family I as one grid.
        real = kernels.dmax_values
        monkeypatch.setattr(
            kernels, "dmax_values",
            lambda gs: np.select([gs == 400, gs == 45, gs == 12], [9950, 10, 3], real(gs)),
        )
        code, out, _ = run(capsys, ["verify", "cor-decoupled", "--rep-max", "300", "--k-max", "3"])
        assert code == 1
        listed = [c["case"] for c in json.loads(out)["counterexamples"]]
        assert {"I(p=1, n=4)", "I(p=100, n=200)", "Iprime(n=6, c=4)", "IV2(r=3)"} <= set(listed)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cdddeff52323a008beef0c53b7a0b6fd2dd7bbe90525464c2f92027e69356726"
        )

    @pytest.mark.parametrize("inject", [None, _bump_best_pair])
    def test_prop_estimate_chunks_join_exactly(self, capsys, monkeypatch, inject):
        # dmax is compared with the table a chunk at a time; 11-genus chunks
        # split 1..100 unevenly and end on an equality genus.
        if inject:
            inject(monkeypatch)
        argv = ["verify", "prop-estimate", "--g-max", "100"]
        want = run(capsys, argv)
        monkeypatch.setattr(kernels, "CHUNK", 11)
        assert run(capsys, argv) == want

    def test_remark_failure_is_one_step_per_cell(self, monkeypatch):
        # Every II row fails its designated witness for small k; searching n
        # one unitary pair at a time for each took 5.6 s at 256/256.  The
        # closed form takes one step per failing (row, k) cell.
        _undominated_family_ii(monkeypatch)
        real = pairs._smallest_dominating_n
        calls = []
        monkeypatch.setattr(pairs, "_smallest_dominating_n", lambda k, t: calls.append(k) or real(k, t))
        monkeypatch.setattr(pairs, "unitary_pair", lambda k, n: pytest.fail("per-n search"))
        doc = pairs.verify_remark_domination(256, 256).to_dict()
        assert doc["details"]["counterexamples_total"] > MAX_LISTED
        assert doc["details"]["counterexamples_total"] <= len(calls) <= doc["details"]["pairs_checked"]

    def test_failure_memory_bounded(self):
        # Every genus of 1..2e6 fails.  Building a dict per failure took about
        # 510 MB; listing only the reported 50 keeps it near a passing run.
        script = (
            "from agdim import cli, kernels\n"
            "real = kernels._dmax\n"
            "kernels._dmax = lambda gs, out, tmp: real(gs, out, tmp) + 1\n"
            "code = cli.main(['verify', 'dmax-piecewise', '--g-max', '2000000'])\n"
        )
        code, peak_kb, out = run_child(script)
        doc = json.loads(out)
        assert code == 1
        assert len(doc["counterexamples"]) == MAX_LISTED
        assert doc["details"]["counterexamples_total"] == 2_000_000
        assert peak_kb < 250 * 1024

    def test_superadditivity_failure_memory_bounded(self):
        # With D = 0 every pair of 1..4000 is an equality (4M rows): the scan
        # keeps counts and the rows the report needs, not every row, and the
        # failing report is byte for byte what listing every row gave (about
        # 430 MB).
        script = (
            "import numpy as np\n"
            "from agdim import cli, kernels\n"
            "kernels.dmax_values = lambda gs: np.zeros(len(gs), dtype=np.int64)\n"
            "code = cli.main(['verify', 'lemma-dmax', '--g-max', '4000'])\n"
        )
        code, peak_kb, out = run_child(script)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "615c12a56a2e90189dc9d496266aa35991f4330bb05951c6f228136a7b417029"
        )
        assert json.loads(out)["witnesses"][0]["count"] == 4000 * 4000 // 4
        assert peak_kb < 100 * 1024

    def test_two_element_window_covers_the_triangle(self, capsys, monkeypatch):
        # A mismatch at a = 3 is inside the window the report states, so it
        # must be found: the window is 2 <= a <= b <= pair_max, not a = 2.
        real = kernels.pair_efficiency_mismatches

        def with_mismatch_at_3(a_max, b_max):
            found = real(a_max, b_max)
            if a_max < 3:
                return found
            return kernels.Found(found.total + 1, np.concatenate([found.listed, [[3, 7]]]))

        monkeypatch.setattr(kernels, "pair_efficiency_mismatches", with_mismatch_at_3)
        code, out, _ = run(capsys, ["verify", "lemma-N", "--sum-max", "10", "--pair-max", "10"])
        doc = json.loads(out)
        assert code == 1
        assert doc["details"]["two_element_window"]["mismatches"] == [[3, 7]]

    @pytest.mark.parametrize("non_uniform", [False, True])
    def test_remark_fallback_witness(self, capsys, monkeypatch, non_uniform):
        # The designated witness n = 7 (II and III at r = 4) loses its
        # dimension, so those rows take the fallback search.  Family II, r = 4
        # then finds n = 6 for every k; with its k = 3 target raised to
        # dimension 20 it finds n = 7 there instead, and a non-uniform
        # fallback keeps the designated n in the witness entry.
        real_unitary = pairs.unitary_pairs
        monkeypatch.setattr(
            pairs, "unitary_pairs", lambda k, n: (real_unitary(k, n)[0] * (n != 7), k * n)
        )
        if non_uniform:
            real_ii = pairs.orthogonal_star_pairs

            def raised(k, r):
                d, g = real_ii(k, r)
                return np.where((k == 3) & (r == 4), 20, d), g

            monkeypatch.setattr(pairs, "orthogonal_star_pairs", raised)
        code, out, _ = run(capsys, ["verify", "remark-domination", "--r-max", "4", "--k-max", "4"])
        assert code == 0
        got = [(w["family"], w["r"], w["designated"], w["witness"]["n"]) for w in json.loads(out)["witnesses"]]
        assert got == [
            ("II", 4, False, 7 if non_uniform else 6),
            ("III", 2, False, 4),
            ("III", 3, True, 6),
            ("III", 4, False, 7),
        ]

    def test_cor_c_recursion_mismatch(self, capsys, monkeypatch):
        # dmc_mgct returns a wrong value without raising: the verifier's own
        # comparison with the closed form must catch it.
        real = verify.dmc_mgct
        monkeypatch.setattr(
            verify, "dmc_mgct", lambda g: replace(real(g), exact=real(g).exact + 1) if g == 10 else real(g)
        )
        code, out, _ = run(capsys, ["verify", "cor-C"])
        assert code == 1
        assert json.loads(out)["counterexamples"] == [{"g": 10, "recursion": 14, "closed_form": 13}]

    def test_cor_c_interior_hypothesis_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "mgct_interior_bound_holds", lambda g: g != 9)
        code, out, _ = run(capsys, ["verify", "cor-C"])
        assert code == 1
        assert json.loads(out)["counterexamples"] == [
            {"g": 9, "reason": "interior hypothesis dmax(g) < floor(3g/2)-2 fails"}
        ]

    def test_lemma_n_counts_unlisted_multisets(self, capsys, monkeypatch):
        # With the closed form negated every multiset of the window fails.
        _negate_closed_form(monkeypatch)
        code, out, _ = run(capsys, ["verify", "lemma-N", "--sum-max", "12", "--pair-max", "10"])
        doc = json.loads(out)
        assert code == 1
        assert len(doc["counterexamples"]) == MAX_LISTED
        assert doc["details"]["counterexamples_total"] == doc["details"]["multisets_checked"] > MAX_LISTED

    def test_lemma_n_max_sum_margin(self, capsys, monkeypatch):
        # The largest sum of an efficient multiset outside {b} and {2, b} is
        # 8, first reached by {3, 5}; a bound of 7 must report it.
        monkeypatch.setattr(efficiency, "MAX_SUM_OUTSIDE_UNBOUNDED", 7)
        code, out, _ = run(capsys, ["verify", "lemma-N", "--sum-max", "20", "--pair-max", "10"])
        assert code == 1
        assert json.loads(out)["counterexamples"] == [
            {
                "multiset": [3, 5],
                "reason": "efficient multiset outside the unbounded families with sum 8 > 7",
            }
        ]

    def test_claim_f_extra_equality_is_a_counterexample(self, capsys, monkeypatch):
        flags, inject = FAILURES["claim-F"]
        inject(monkeypatch)
        code, out, _ = run(capsys, ["verify", "claim-F", *flags])
        assert code == 1
        assert json.loads(out)["counterexamples"] == [
            {
                "reason": "equality pairs differ from {(1, 4), (4, 8)}",
                "unexpected": [[4, 8]],
                "missing": [],
            }
        ]


class TestExplainCommand:
    def test_genus_16(self, capsys):
        code, out, _ = run(capsys, ["explain", "16"])
        assert code == 0
        assert "dmc(A_16) = 16" in out
        assert "case (iii)" in out
        assert "SpecialFamily(k=2, n=8)" in out

    def test_genus_19(self, capsys):
        code, out, _ = run(capsys, ["explain", "19"])
        assert code == 0
        assert "dmc(A_19) = 20" in out
        assert "case (iv)" in out
        assert "ProductWithPoint(SpecialFamily(k=2, n=9))" in out

    def test_genus_7(self, capsys):
        code, out, _ = run(capsys, ["explain", "7"])
        assert code == 0
        assert "dmc(A_7) = 6" in out
        assert "case (ii)" in out
        assert "HodgeGeneric" in out

    def test_self_check_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(moduli, "dmax", lambda g: -1)
        code, out, err = run(capsys, ["explain", "20"])
        assert code == 1
        assert out == ""
        assert err.startswith("explain: internal self-check failed")

    def test_descriptor_self_check_exits_one(self, capsys, monkeypatch):
        # a case record whose descriptor does not attain dmc must stop explain
        wrong = moduli._CASES["iii"]._replace(attained_by=lambda g: (moduli.SpecialFamily.unitary(2, g // 2 - 1),))
        monkeypatch.setitem(moduli._CASES, "iii", wrong)
        code, out, err = run(capsys, ["explain", "16"])
        assert (code, out) == (1, "")
        assert err.startswith("explain: attainment descriptor ") and err.count("\n") == 1
        assert err.endswith(" re-evaluates to 12, not dmc=16, at g=16\n")

    def test_descriptor_genus_self_check_exits_one(self, capsys, monkeypatch):
        # a descriptor of the right dimension but of another genus: at g=18,
        # a point times the unitary family of genus 18 has dimension 20 = dmc
        # and genus 19
        wrong = moduli._CASES["iii"]._replace(
            attained_by=lambda g: (moduli.ProductWithPoint(moduli.SpecialFamily.unitary(2, g // 2)),)
        )
        monkeypatch.setitem(moduli._CASES, "iii", wrong)
        assert run(capsys, ["explain", "18"]) == (
            1,
            "",
            "explain: attainment descriptor ProductWithPoint(SpecialFamily(k=2, n=9)) "
            "has genus 19, not g=18\n",
        )

    def test_json_schema_valid(self, capsys):
        for g in range(1, 41):
            code, out, _ = run(capsys, ["explain", str(g), "--format", "json"])
            assert code == 0
            doc = json.loads(out)
            jsonschema.validate(doc, EXPLAIN_SCHEMA)
            if g == 17:
                assert doc["case"] == "v"
                assert len(doc["attained_by"]) == 2

    @pytest.fixture
    def builds(self, monkeypatch):
        """Record every table build and stop it before it allocates: the
        refused genera are far too large to build."""
        calls = []

        def refuse(g_max):
            calls.append(g_max)
            raise RuntimeError("table build reached")

        monkeypatch.setattr(moduli, "_DMC", ())
        monkeypatch.setattr(moduli, "mdsp_star_table", refuse)
        for kernel in ("best_indec_table", "mdsp_table"):
            monkeypatch.setattr(kernels, kernel, lambda *args: calls.append(args))
        return calls

    def test_past_kernel_ceiling_usage_error(self, capsys, monkeypatch, builds):
        monkeypatch.setattr(verify, "_memory_budget", lambda: 2**80)
        g = kernels.MAX_SAFE_G + 1
        assert run(capsys, ["explain", str(g)]) == (
            2,
            "",
            f"explain: g={g} exceeds the int64-safe kernel ceiling {kernels.MAX_SAFE_G} "
            "for explain; no flag lifts it\n",
        )
        assert builds == []
        # at the ceiling itself, the table build is reached
        assert run(capsys, ["explain", str(g - 1)])[0] == 1
        assert builds == [g - 1]

    def test_memory_budget_usage_error(self, capsys, monkeypatch, builds):
        monkeypatch.setattr(verify, "_memory_budget", lambda: moduli.dmc_ag_peak_bytes(10**6))
        code, out, err = run(capsys, ["explain", "1000001", "--format", "json"])
        assert (code, out, builds) == (2, "", [])  # refused before the first allocation
        assert err.startswith("explain: g=1000001 needs about 0.1 GiB for explain, more than half of physical")
        assert err.endswith("; no flag lifts it\n") and err.count("\n") == 1
        assert run(capsys, ["explain", "1000000"])[0] == 1
        assert builds == [10**6]

    def test_bytes_per_genus_covers_peak(self, monkeypatch):
        g = 20_000
        monkeypatch.setattr(moduli, "_DMC", ())  # a fresh process's state
        tracemalloc.start()
        try:
            assert moduli.dmc_ag(g).dmc == dmax(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= moduli.dmc_ag_peak_bytes(g)

    def test_schema_enums_match_moduli(self):
        props = EXPLAIN_SCHEMA["properties"]
        assert props["case"]["enum"] == list(moduli._CASES)
        descriptor_types = props["attained_by"]["items"]["properties"]["type"]["enum"]
        assert descriptor_types == [t.__name__ for t in typing.get_args(moduli.Attainment)]


class TestCatalogCommand:
    def test_export(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--rep-max", "8"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, CATALOG_SCHEMA)
        assert len(doc["cases"]) == 30
        assert doc["cases"][0]["case"] == "A1"

    def test_timestamp_and_out_file(self, capsys, monkeypatch, tmp_path):
        # more rows than one block, so the blocks' seams are in the output
        monkeypatch.setattr(cli, "_BLOCK", 7)
        code, plain, _ = run(capsys, ["catalog", "--rep-max", "8"])
        assert code == 0
        assert plain == json.dumps(json.loads(plain), indent=2) + "\n"
        code, stamped, _ = run(capsys, ["catalog", "--rep-max", "8", "--timestamp"])
        doc = json.loads(stamped)
        assert list(doc) == ["schema", "max_rep_dim", "cases", "generated_at"]
        assert stamped == json.dumps(doc, indent=2) + "\n"
        target = tmp_path / "catalog.json"
        code, out, _ = run(capsys, ["catalog", "--rep-max", "8", "--out", str(target)])
        assert (code, out) == (0, "")
        assert target.read_text(encoding="utf-8") == plain

    def test_memory_bounded(self, tmp_path):
        # 66,411 rows: building every row and the whole text first peaked at
        # about 185 MB; pieces of the grid and blocks of rows keep it flat.
        target = tmp_path / "catalog.json"
        script = f"from agdim import cli\ncode = cli.main(['catalog', '--rep-max', '512', '--out', {str(target)!r}])\n"
        code, peak_kb, _ = run_child(script)
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "5b8ab23fd16ea89f3c692d1a458c1ab7a88074eb156e966a5c67979d1356767a"
        )
        assert peak_kb < 100 * 1024

    def test_out_replaced_only_on_success(self, capsys, monkeypatch, tmp_path):
        # A run that fails after its first block leaves an existing --out
        # file as it was, and no temporary file behind.
        monkeypatch.setattr(cli, "_BLOCK", 7)
        target = tmp_path / "catalog.json"
        target.write_text("old contents\n", encoding="utf-8")
        real = cli.iter_cases
        during = []

        class Interrupted(Exception):
            pass

        def failing(*args, **kwargs):
            yield from islice(real(*args, **kwargs), 8)  # the second block's first row
            during.append(sorted(p.name for p in tmp_path.iterdir()))
            raise Interrupted

        monkeypatch.setattr(cli, "iter_cases", failing)
        with pytest.raises(Interrupted):
            cli.main(["catalog", "--rep-max", "8", "--out", str(target)])
        assert len(during) == 1 and len(during[0]) == 2  # the first block went to a temporary file
        assert target.read_text(encoding="utf-8") == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.json"]
        monkeypatch.setattr(cli, "iter_cases", real)
        _, plain, _ = run(capsys, ["catalog", "--rep-max", "8"])
        target.chmod(0o640)
        assert run(capsys, ["catalog", "--rep-max", "8", "--out", str(target)])[:2] == (0, "")
        assert target.read_text(encoding="utf-8") == plain
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.json"]

    def test_out_directory_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, ["catalog", "--rep-max", "8", "--out", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err == f"catalog: cannot write --out {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_through_symlink_and_fifo(self, capsys, tmp_path):
        _, plain, _ = run(capsys, ["catalog", "--rep-max", "8"])
        (tmp_path / "real.json").write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.json"
        link.symlink_to("real.json")
        assert run(capsys, ["catalog", "--rep-max", "8", "--out", str(link)])[:2] == (0, "")
        assert link.is_symlink() and (tmp_path / "real.json").read_text(encoding="utf-8") == plain
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True
        )
        reader.start()
        try:
            assert run(capsys, ["catalog", "--rep-max", "8", "--out", str(fifo)])[:2] == (0, "")
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive() and got == [plain]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.json", "real.json"]

    @pytest.mark.parametrize("block", [512, 7])
    @pytest.mark.parametrize("rep_max", [2, 3, 8, 64, 300])
    def test_blocks_equal_json_block(self, capsys, monkeypatch, rep_max, block):
        # Every block the layout templates render is the general renderer's
        # text for the records of the same rows: at 300 every small family's
        # duality and flag layouts, and blocks of 7 straddle the family
        # boundaries.
        real = cli._catalog_rows
        written = []

        def spied():
            render = real()
            return lambda rows: written.append((rows, render(rows))) or written[-1][1]

        monkeypatch.setattr(cli, "_BLOCK", block)
        monkeypatch.setattr(cli, "_catalog_rows", spied)
        code, out, _ = run(capsys, ["catalog", "--rep-max", str(rep_max)])
        records = satake.catalog_json(rep_max)
        assert code == 0 and [satake.record(*r) for rows, _ in written for r in rows] == records
        # the rows' records as _dumps renders them one level deep, without
        # the list's brackets
        oracle = [cli._dumps([satake.record(*r) for r in rows], "\n  ")[1:-4] for rows, _ in written]
        assert [text for _, text in written] == oracle
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        if rep_max == 300:
            layouts = {(r["case"], r["duality"], r["min_compact_factors"]) for r in records}
            # all 19 the families have: three dualities each for Iprime and
            # IV1even, two flags for II, and IV2's three dualities at r >= 5
            # besides r = 3 with no forced compact factor
            assert len(layouts) == 19 and {r[0] for r in layouts} == set(satake.FAMILIES)

    def test_rows_have_exact_leaf_types(self):
        # The layout templates are filled unchecked: %s writes a bool as
        # True and a numpy integer where json refuses one, so every integer
        # leaf is exactly int and every layout leaf exactly str.  At 300 the
        # rows cover every (case, duality) layout.
        rows = list(satake.iter_cases(300))
        assert {type(x) for _, ints in rows for x in ints} == {int}
        assert {type(x) for layout, _ in rows for x in layout} == {str}
        assert len({layout for layout, _ in rows}) == 17

    @pytest.mark.parametrize("key", ["hss_dim", "rep_dim", "min_compact_factors", "p"])
    def test_non_int_leaves_never_filled(self, key):
        # _layout leaves only an exact int as %s: a bool in the record it
        # is built from is encoded as json writes it, and a numpy integer is
        # json's TypeError.  iter_cases gives every such leaf as an int.
        pos = ("p", "n", "hss_dim", "rep_dim", "min_compact_factors").index(key)
        rows = [r for r in satake.iter_cases(300) if r[0][0] == "I"]
        assert rows and {type(ints[pos]) for _, ints in rows} == {int}
        layout, ints = rows[0]
        template = cli._layout(satake.record(layout, ints))
        for odd, want in [(True, "true"), (np.int64(5), TypeError)]:
            odd_ints = (*ints[:pos], odd, *ints[pos + 1 :])
            if want is TypeError:
                with pytest.raises(TypeError):
                    cli._layout(satake.record(layout, odd_ints))
                continue
            text = cli._layout(satake.record(layout, odd_ints))
            assert f'"{key}": {want}' in text and "True" not in text
            assert text.count("%s") == template.count("%s") - 1

    class Family(str):
        """A case name that is a ``str`` but not exactly one."""

    def test_non_str_layout_takes_the_general_path(self):
        # A layout leaf that is not an int is encoded by json, as _dumps
        # encodes it: a case of a str subclass or a duality of None renders
        # as the general renderer writes its record.  A duality of an int
        # would be one more %s in the template, and the row is refused.
        rows = list(satake.iter_cases(8))
        (case, duality), ints = rows[-1]
        for layout in [(self.Family(case), duality), (case, None)]:
            block = [*rows[:-1], (layout, ints)]
            oracle = cli._dumps([satake.record(*r) for r in block], "\n  ")[1:-4]
            assert cli._catalog_rows()(block) == oracle
        with pytest.raises(TypeError):
            cli._catalog_rows()([*rows[:-1], ((case, 1), ints)])

    def test_ceiling(self, capsys):
        code, _, err = run(capsys, ["catalog", "--rep-max", "100000"])
        assert code == 2
        assert "ceiling" in err

    def test_schema_flag(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--schema"])
        assert code == 0
        assert json.loads(out)["$id"] == "agdim.catalog/1"


class TestTracerContract:
    """perfbench's tracer, which cannot change with agdim, swaps ``cli.json``
    for a namespace that holds only ``dumps`` and wraps ``iter_cases`` in
    every agdim module in a generator that counts its yields, one per
    exported case.  The outputs must not change under those swaps."""

    def test_outputs_unchanged_and_cases_counted(self, capsys, monkeypatch):
        # the smallest catalog (one case), a default-sized one and one with
        # every layout
        catalogs = [["catalog", "--rep-max", str(n)] for n in (2, 64, 300)]
        argvs = [
            *catalogs,
            ["verify", "remark-domination"],
            ["explain", "750", "--format", "json"],
        ]
        plain = [run(capsys, argv) for argv in argvs]
        real = satake.iter_cases
        yields = []

        def counted(*args, **kwargs):
            for case in real(*args, **kwargs):
                yields.append(case)
                yield case

        monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=json.dumps))
        for module in (satake, cli):
            monkeypatch.setattr(module, "iter_cases", counted)
        counts = []
        for argv, want in zip(argvs, plain):
            del yields[:]
            assert run(capsys, argv) == want
            counts.append(len(yields))
        # one yield per exported case, and none outside catalog
        cases = [len(json.loads(out)["cases"]) for code, out, _ in plain[: len(catalogs)]]
        assert all(code == 0 for code, _, _ in plain[: len(catalogs)])
        assert counts == [*cases, 0, 0] and cases[0] == 1


# Exit code, stdout and stderr of a subcommand run without its positional
# (or with a genus below 1): a usage error, except with --schema.
MISSING_POSITIONAL = {
    "dmax": (2, "", "dmax: a genus or range argument is required\n"),
    "verify": (2, "", "verify: a claim id is required (or --schema)\n"),
    "explain": (2, "", "explain: g must be a positive integer\n"),
    "explain 0": (2, "", "explain: g must be a positive integer\n"),
    "dmax --schema": (0, json.dumps(DMAX_TABLE_SCHEMA, indent=2) + "\n", ""),
    "verify --schema": (0, json.dumps(VERIFICATION_REPORT_SCHEMA, indent=2) + "\n", ""),
    "explain --schema": (0, json.dumps(EXPLAIN_SCHEMA, indent=2) + "\n", ""),
}


class TestTopLevel:
    def test_no_command_usage_error(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_version(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0

    @pytest.mark.parametrize("line", list(MISSING_POSITIONAL))
    def test_missing_positional(self, capsys, line):
        assert run(capsys, line.split()) == MISSING_POSITIONAL[line]

    @pytest.mark.parametrize(
        "argv",
        [
            ["dmax", "16..18"],
            ["tables"],
            ["tables", "--check"],
            ["verify", "cor-C"],
            ["explain", "16"],
            ["catalog", "--rep-max", "8"],
            ["catalog", "--schema"],
        ],
        ids=" ".join,
    )
    def test_out_holds_stdout(self, capsys, tmp_path, argv):
        code, plain, _ = run(capsys, argv)
        target = tmp_path / "out.txt"
        assert run(capsys, [*argv, "--out", str(target)]) == (code, "", "")
        assert target.read_text(encoding="utf-8") == plain


    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "lemma-dmax", "--g-max", "1"], "verify: --g-max must be >= 2\n"),
            (["catalog", "--rep-max", "1"], "catalog: --rep-max must be >= 2\n"),
        ],
    )
    def test_range_below_minimum(self, capsys, argv, message):
        assert run(capsys, argv) == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["dmax", "16..18"],
            ["dmax", "16..18", "--format", "json"],
            ["tables"],
            ["verify", "cor-C"],
            ["explain", "16", "--format", "json"],
        ],
        ids=" ".join,
    )
    def test_timestamp_is_the_only_difference(self, capsys, argv):
        code, plain, _ = run(capsys, argv)
        stamped_code, stamped, _ = run(capsys, [*argv, "--timestamp"])
        assert stamped_code == code
        if "json" in argv or argv[0] == "verify":
            doc = json.loads(stamped)
            stamp = doc.pop("generated_at")
            rest = json.dumps(doc, indent=2) + "\n"
        else:
            rest, _, stamp = stamped.rpartition("\ngenerated at ")
            assert stamp.endswith("\n")
            stamp = stamp[:-1]
        assert rest == plain
        assert datetime.fromisoformat(stamp).utcoffset() == timedelta(0)


# Exit code, stdout and stderr of each help text and usage error, recorded
# with COLUMNS=80 when every subcommand's arguments were built up front.
CLI_SURFACE = json.loads((Path(__file__).parent / "cli_surface.json").read_text(encoding="utf-8"))


# valid and invalid values of every positional and value flag
_VALUES = st.sampled_from(
    ["5", "0", "64", "16..18", "json", "csv", "xml", "ag", "all", "lemma-N", "cor-C", "abc", "-5", "", "1_000", " 7", "x.json"]
)


def _values(action: argparse.Action):
    """A value for ``action``: one it accepts, or any of ``_VALUES``; None
    for a flag that takes no value."""
    if action.nargs == 0:
        return None
    accepted = action.choices or (["7", "128"] if action.type is int else ["16..18", "x.json"])
    return st.one_of(st.sampled_from(sorted(accepted)), _VALUES)


def _declared() -> dict[str, tuple]:
    """Each subcommand's positional and flags, read from the subparsers of
    ``cli.build_parser()`` (``-h`` and ``--help`` included), not from the
    table they are built from: the values of its positional, and its
    flags, each with ``_values`` of it."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {}
    for name, p in sub.choices.items():
        positional = next((_values(a) for a in p._actions if not a.option_strings), _VALUES)
        declared[name] = (positional, {f: _values(a) for f, a in sorted(p._option_string_actions.items())})
    return declared


_ARGUMENTS = _declared()
_COMMANDS = sorted(_ARGUMENTS)
_FLAGS = st.sampled_from(sorted({flag for _, flags in _ARGUMENTS.values() for flag in flags}))
_TOKENS = st.one_of(
    st.sampled_from(_COMMANDS), _FLAGS, _VALUES, st.sampled_from(["--version", "--", "--g-max=5", "--g-m", "-"])
)


@st.composite
def _shaped_argv(draw) -> list[str]:
    """A subcommand, maybe a positional, then some of its own flags other
    than ``-h`` and ``--help``, each once, a value after each that takes
    one."""
    command = draw(st.sampled_from(_COMMANDS))
    positional, flags = _ARGUMENTS[command]
    argv = [command, *draw(st.lists(positional, max_size=1))]
    own = [flag for flag in flags if flag not in ("-h", "--help")]
    for flag in draw(st.lists(st.sampled_from(own), max_size=4, unique=True)):
        argv += [flag] if flags[flag] is None else [flag, draw(flags[flag])]
    return argv


class TestCliSurface:
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse text recorded as Python 3.11 prints it")
    @pytest.mark.parametrize("case", CLI_SURFACE, ids=lambda case: " ".join(case["argv"]) or "no-args")
    def test_text_unchanged(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, case["argv"]) == (case["code"], case["stdout"], case["stderr"])

    def test_one_parser_per_command(self, capsys, monkeypatch):
        # perfbench's tracer calls build_parser() with no arguments and wraps
        # parse_args on each parser it returns, so every call builds a new
        # one.  build_parser builds the top-level parser and every
        # subcommand's, each once.  main builds none for a well-formed
        # command line, and one such set for every other one.
        assert inspect.signature(cli.build_parser).parameters == {}
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        one_set = ["agdim", *(f"agdim {name}" for name in ("dmax", "tables", "verify", "explain", "catalog"))]

        parser = cli.build_parser()
        assert cli.build_parser() is not parser
        assert built == one_set * 2
        assert parser.parse_args(["verify", "lemma-N", "--g-max", "7"]).g_max == 7
        assert parser.parse_args(["verify", "f-bounds"]).claim == "f-bounds"
        assert built == one_set * 2

        for argv, code, parsers in [
            (["explain", "5"], 0, []),
            (["verify", "lemma-N", "--sum-max", "8"], 0, []),
            (["explain", "--format", "json", "5"], 0, one_set),  # declined
            (["-h"], 0, one_set),
            (["--version"], 0, one_set),
            ([], 2, one_set),
            (["bogus"], 2, one_set),
        ]:
            built.clear()
            assert run(capsys, argv)[0] == code
            assert built == parsers

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(st.lists(_TOKENS, max_size=6), _shaped_argv()))
    @example(["explain", "5", "--format", "json"])
    @example(["verify", "cor-decoupled", "--rep-max", "64", "--k-max", "4"])
    @example(["tables", "--check"])
    @example(["catalog"])
    def test_direct_parse_matches_argparse(self, argv):
        # A command line main parses without argparse is one argparse
        # accepts, into the same namespace, value types included.
        direct = cli._parse_direct(argv)
        if direct is None:
            return
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parsed = cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refused {argv}: {err.getvalue()}")

        def typed(ns):
            return sorted((k, type(v), v) for k, v in vars(ns).items())

        assert typed(direct) == typed(parsed)


def test_python_dash_m():
    src = str(Path(agdim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "agdim", "dmax", "16..17"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "| g | dmax |\n| --- | --- |\n| 16 | 16 |\n| 17 | 16 |\n"
