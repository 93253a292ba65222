import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import agdim
import agdim.cli as cli
from agdim import kernels, verify
import agdim.tables as tables_mod
from agdim.report import VerificationReport
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
        ],
    )
    def test_kernel_ceiling_usage_error(self, capsys, monkeypatch, claim, flag, limit, kernel):
        calls = []
        monkeypatch.setattr(kernels, kernel, lambda *args: calls.append(args))
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

        def spy(D, *bounds):
            calls.append((len(D), bounds))
            return spied(D, *bounds)

        monkeypatch.setattr(verify, "_WORKERS", 4)
        monkeypatch.setattr(kernels, "superadditivity_scan", spy)
        code, out, _ = run(capsys, ["verify", "lemma-dmax", "--g-max", "600"])
        assert code == 0
        assert json.loads(out)["status"] == "pass"
        assert calls == [(601, (1, 300))]

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        def fake_run_verifier(claim, overrides=None, unsafe_no_ceiling=False):
            return VerificationReport(
                claim=claim,
                range={},
                status="fail",
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
