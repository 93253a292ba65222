"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion including its runtime against the stated limit.
"""

import time
from contextlib import contextmanager

from agdim import moduli
from agdim.arith import dmax_piecewise, keel_sadun_bound
from agdim.moduli import assemble_tables, dmc_ag, dmc_ag_range
from agdim.tables import check_against_fixture
from agdim.verify import run_verifier


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} [{description}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    in_time = elapsed < limit_seconds
    verdict = "PASS" if in_time else "FAIL (time limit)"
    print(
        f"ACCEPTANCE {number} [{description}]: {verdict} "
        f"({elapsed:.2f}s, limit {limit_seconds:.0f}s)"
    )
    assert in_time, f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"


def test_criterion_1_table_ag_reproduction():
    with criterion(1, "summary table for A_g reproduced cell-exactly", 1.0):
        table = assemble_tables()["ag"]
        assert check_against_fixture(table) == []
        for g in table.genera:
            assert table.row("dmcg_ag").cell(g).value == g - 1
            assert table.row("dmc_ag").cell(g).value == dmax_piecewise(g)
            assert table.row("keel_sadun").cell(g).value == keel_sadun_bound(g)


def test_criterion_2_table_mg_reproduction():
    with criterion(2, "summary table for M_g^ct / M_g reproduced cell-exactly", 1.0):
        table = assemble_tables()["mg"]
        assert check_against_fixture(table) == []
        assert table.row("dmc_mgct").cell(23).value == 32
        cell24 = table.row("dmc_mgct").cell(24)
        assert (cell24.value, cell24.kind) == (34, "lower-bound")
        assert table.row("jac_lower").cell(100).value == 66
        assert table.row("jac_upper").cell(100).value == 196
        assert table.row("mg_lower").cell(100).value == 5
        assert table.row("mg_upper").cell(100).value == 98


def test_criterion_3_recursion_matches_closed_form():
    with criterion(3, "product recursion equals the closed form for g <= 500", 5.0):
        results = dmc_ag_range(500)
        for result in results[1:]:
            # compared against the independent three-branch expression
            assert result.dmc == dmax_piecewise(result.g)


def test_criterion_4_superadditivity_exhaustive():
    with criterion(4, "superadditivity with exact equality set, g1+g2 <= 4000", 30.0):
        report = run_verifier("lemma-dmax", {"g_max": 4000})
        assert report.passed
        assert report.counterexamples == []
        assert report.witnesses[0]["count"] == 1992  # (1, even g2), 16 <= g2 <= 3998


def test_criterion_5_multiset_classification():
    with criterion(5, "efficiency classification agrees with the oracle, sum <= 60", 60.0):
        report = run_verifier("lemma-N", {"sum_max": 60})
        assert report.passed
        assert report.counterexamples == []
        # Outside the two unbounded families ({b} and {2,b}, efficient for
        # every b), no efficient multiset in the window has sum above 14;
        # the observed maximum is 8.
        assert report.details["max_sum_of_efficient_outside_unbounded"] <= 14
        assert report.details["max_sum_of_efficient_outside_unbounded"] == 8
        assert report.details["two_element_window"]["mismatches"] == []


def test_criterion_6_best_pair_vs_bound():
    with criterion(6, "best single-family pair vs the bound, g <= 2000", 10.0):
        report = run_verifier("prop-estimate", {"g_max": 2000})
        assert report.passed
        assert report.counterexamples == []
        # {2} plus the 993 even genera in [16, 2000]
        assert report.witnesses[0]["count"] == 994


def test_criterion_7_family_domination():
    with criterion(7, "division/II/III families dominated, parameters <= 64", 10.0):
        claim_f = run_verifier(
            "claim-F", {"s_max": 64, "delta_max": 64, "k_max": 64, "n_max": 64}
        )
        assert claim_f.passed
        assert sorted(e["pair"] for e in claim_f.details["equalities"]) == [[1, 4], [4, 8]]
        remark = run_verifier("remark-domination", {"r_max": 64, "k_max": 64})
        assert remark.passed
        assert remark.counterexamples == []


def test_criterion_8_compact_type_recursion():
    with criterion(8, "compact-type recursion exact to 23, interior hypothesis", 1.0):
        report = run_verifier("cor-C")
        assert report.passed
        assert report.counterexamples == []


def test_criterion_9_catalog_dimension_bound():
    with criterion(9, "catalog bound, rep_dim <= 1024, 2 <= k <= 12", 10.0):
        report = run_verifier("cor-decoupled", {"rep_max": 1024, "k_max": 12})
        assert report.passed
        assert report.counterexamples == []
        assert report.witnesses[0]["equality_cases"] == "family I with k=2 only"
        # one equality per even-split unitary case with n in [8, 1024]
        assert report.witnesses[0]["count"] == 1017


def test_criterion_10_recursion_at_large_genus(monkeypatch):
    with criterion(10, "product recursion at g = 160000 from an empty table", 5.0):
        monkeypatch.setattr(moduli, "_DMC", ())  # a fresh process's state
        assert dmc_ag(160_000).dmc == dmax_piecewise(160_000)
