import hashlib
import inspect
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import types
from itertools import islice
from pathlib import Path

import jsonschema
import numpy as np
import pytest

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

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, ["dmax"])
        assert code == 2
        assert "required" in err

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

    def test_check_fails_on_tampered_fixture(self, capsys, monkeypatch):
        monkeypatch.setitem(tables_mod.FIXTURE_AG["dmc_ag"], 18, (21, "exact"))
        code, out, _ = run(capsys, ["tables", "--check"])
        assert code == 1
        assert "row dmc_ag, g=18" in out

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

    def test_missing_claim_usage_error(self, capsys):
        code, _, err = run(capsys, ["verify"])
        assert code == 2
        assert "claim id" in err

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

    @pytest.mark.parametrize("claim, kernel", [("lemma-dmax", "dmax_values"), ("prop-estimate", "best_indec_table")])
    def test_memory_budget_usage_error(self, capsys, monkeypatch, claim, kernel):
        # --unsafe-no-ceiling lifts the ceiling, not the memory check.  The
        # budget is patched, so the refused range is never allocated.
        calls = []
        monkeypatch.setattr(kernels, kernel, lambda *args: calls.append(args))
        monkeypatch.setattr(verify, "_memory_budget", lambda: verify.REGISTRY[claim].bytes_per_genus * 10**6)
        code, out, err = run(capsys, ["verify", claim, "--g-max", "1000001", "--unsafe-no-ceiling"])
        assert (code, out, calls) == (2, "", [])  # refused before the first allocation
        assert err.startswith(f"verify: --g-max=1000001 needs about ") and err.endswith("no flag lifts it\n")
        with pytest.raises(verify.CeilingExceeded):
            verify.run_verifier(claim, {"g_max": 10**6 + 1}, unsafe_no_ceiling=True)
        assert verify.range_args(claim, {"g_max": 10**6}, unsafe_no_ceiling=True) == {"g_max": 10**6}

    @pytest.mark.parametrize("claim, g_max", [("lemma-dmax", 20_000), ("prop-estimate", 1_000_000)])
    def test_bytes_per_genus_covers_peak(self, claim, g_max):
        tracemalloc.start()
        try:
            report = verify.run_verifier(claim, {"g_max": g_max})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and peak <= verify.REGISTRY[claim].bytes_per_genus * g_max

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
        # 2.5M values exceed one 2^21 block, so even one worker runs 2 blocks.
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
            assert len(calls) > 1
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
        def fake_run_verifier(claim, overrides=None, unsafe_no_ceiling=False):
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

    def test_verify_usage_error_keeps_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("kept\n")
        for bad in (["--g-max", "1000000"], ["--n-max", "5"]):
            code, _, err = run(capsys, ["verify", "lemma-dmax", *bad, "--out", str(target)])
            assert code == 2 and err.startswith("verify: "), bad
            assert target.read_text() == "kept\n"
        code, out, _ = run(capsys, ["verify", "lemma-dmax", "--g-max", "40", "--out", str(target)])
        assert (code, out) == (0, "")
        assert json.loads(target.read_text())["status"] == "pass"


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
        ],
    )
    def test_failing_stdout_unchanged(self, capsys, monkeypatch, claim, flags, inject, digest):
        # Recorded with the per-n Python-int searches, before the closed-form
        # smallest dominating n replaced them.
        inject(monkeypatch)
        code, out, _ = run(capsys, ["verify", claim, *flags])
        assert code == 1
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
            return np.concatenate([found, [[3, 7]]]) if a_max >= 3 else found

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

    def test_invalid_genus(self, capsys):
        assert run(capsys, ["explain", "0"])[0] == 2
        assert run(capsys, ["explain"])[0] == 2

    def test_json_schema_valid(self, capsys):
        code, out, _ = run(capsys, ["explain", "17", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, EXPLAIN_SCHEMA)
        assert doc["case"] == "v"
        assert len(doc["attained_by"]) == 2


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
        argvs = [
            ["catalog", "--rep-max", "64"],
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
        assert [run(capsys, argv) for argv in argvs] == plain
        assert plain[0][0] == 0
        assert len(yields) == len(json.loads(plain[0][1])["cases"]) > 0


class TestTopLevel:
    def test_no_command_usage_error(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_version(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0


# Exit code, stdout and stderr of each help text and usage error, recorded
# with COLUMNS=80 when every subcommand's arguments were built up front.
CLI_SURFACE = json.loads((Path(__file__).parent / "cli_surface.json").read_text(encoding="utf-8"))


class TestCliSurface:
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse text recorded as Python 3.11 prints it")
    @pytest.mark.parametrize("case", CLI_SURFACE, ids=lambda case: " ".join(case["argv"]) or "no-args")
    def test_text_unchanged(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, case["argv"]) == (case["code"], case["stdout"], case["stderr"])

    def test_subcommand_arguments_built_on_first_parse(self, monkeypatch):
        # perfbench's tracer calls build_parser() with no arguments and wraps
        # parse_args on what it returns.  A subcommand that does not run
        # builds none of its arguments.
        assert inspect.signature(cli.build_parser).parameters == {}
        usages = []
        real = cli._verify_args

        def spy(p):
            usages.append(p.format_usage())
            real(p)
            usages.append(p.format_usage())

        monkeypatch.setattr(cli, "_verify_args", spy)
        cli.build_parser().parse_args(["explain", "5"])
        assert usages == []
        parser = cli.build_parser()
        assert usages == []
        args = parser.parse_args(["verify", "lemma-N", "--g-max", "7"])
        assert args.g_max == 7 and args.handler is cli._cmd_verify
        assert "--g-max" not in usages[0] and "--g-max" in usages[1]
        assert parser.parse_args(["verify", "f-bounds"]).claim == "f-bounds"
        assert len(usages) == 2  # added once per parser


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
