import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import agdim
import agdim.cli as cli
from agdim import efficiency, kernels, moduli, pairs, verify
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
        for bad in ("0", "5..2", "x..y", ""):
            code, _, err = run(capsys, ["dmax", bad])
            assert code == 2, bad

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, ["dmax"])
        assert code == 2
        assert "required" in err

    def test_schema_flag(self, capsys):
        code, out, _ = run(capsys, ["dmax", "--schema"])
        assert code == 0
        assert json.loads(out)["$id"] == "agdim.dmax-table/1"


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


def _bump_dmax(mp):
    real = kernels.dmax_values
    mp.setattr(kernels, "dmax_values", lambda gs: real(gs) + 1)


def _whole_block(kernel):
    def inject(mp):
        mp.setattr(kernels, kernel, lambda lo, hi: np.arange(lo, hi + 1, dtype=np.int64))

    return inject


def _negate_closed_form(mp):
    real = efficiency.is_efficient_closed
    mp.setattr(efficiency, "is_efficient_closed", lambda N: not real(N))


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


def _failing_mgct(mp):
    def boom(g):
        raise RuntimeError(f"self-check failed at g={g}")

    mp.setattr(verify, "dmc_mgct", boom)


def _zero_dmax(mp):
    mp.setattr(kernels, "dmax_values", lambda gs: np.zeros_like(gs))


# One wrong input per claim, at a tiny range; every verifier must report it.
FAILURES = {
    "lemma-dmax": (["--g-max", "40"], _bump_dmax),
    "dmax-piecewise": (["--g-max", "100"], _whole_block("piecewise_mismatches")),
    "f-bounds": (["--n-max", "100"], _whole_block("f_bound_violations")),
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

    def test_failure_memory_bounded(self):
        # Every genus of 1..2e6 fails.  Building a dict per failure took about
        # 510 MB; listing only the reported 50 keeps it near a passing run.
        # The peak is the child's VmHWM: its ru_maxrss would include the
        # high-water mark of this process, which exec carries over on Linux.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from agdim import cli, kernels\n"
            "kernels.piecewise_mismatches = lambda lo, hi: np.arange(lo, hi + 1, dtype=np.int64)\n"
            "code = cli.main(['verify', 'dmax-piecewise', '--g-max', '2000000'])\n"
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
        doc = json.loads(proc.stdout)
        assert code == 1
        assert len(doc["counterexamples"]) == MAX_LISTED
        assert doc["details"]["counterexamples_total"] == 2_000_000
        assert peak_kb < 250 * 1024

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

    def test_ceiling(self, capsys):
        code, _, err = run(capsys, ["catalog", "--rep-max", "100000"])
        assert code == 2
        assert "ceiling" in err

    def test_schema_flag(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--schema"])
        assert code == 0
        assert json.loads(out)["$id"] == "agdim.catalog/1"


class TestTopLevel:
    def test_no_command_usage_error(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_version(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0


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
