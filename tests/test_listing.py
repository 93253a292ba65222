"""One listing rule for every claim: under a fault that fails every item of
its range, a claim's run costs what its passing run does, beyond the rows
its report lists, and lists what a scalar oracle lists first."""

import importlib
import tracemalloc
from itertools import islice

import pytest

from agdim import satake, verify
from agdim.arith import Pair, dmax, dmax_piecewise, half_product, strictly_dominates
from agdim.pairs import best_indecomposable, unitary_pair
from agdim.report import MAX_LISTED
from faults import EVERY_ITEM

# What a failing run may hold beyond its passing run: the rows of its
# report, at most MAX_LISTED of them, 8.7 kB for prop-estimate's, the most
# measured.  Listing through a whole-mask np.flatnonzero took 8 bytes per
# failing item: 293 kB more than passing for prop-estimate at --g-max 65536,
# and for cor-decoupled at --rep-max 256.
LISTED_ROWS_BYTES = 16 * 1024


def _first(rows):
    return list(islice(rows, MAX_LISTED))


def _lemma_dmax(g_max):
    # dmax is 0, so every pair ties, the stated ties (1, even g2 >= 16) among them
    off_rule = (
        [g1, g2]
        for g1 in range(1, g_max // 2 + 1)
        for g2 in range(g1, g_max - g1 + 1)
        if not (g1 == 1 and g2 >= 16 and g2 % 2 == 0)
    )
    reason = "equality set differs from {(1, even g2 >= 16)}"
    return [{"reason": reason, "unexpected": _first(off_rule), "missing": []}]


def _dmax_piecewise(g_max):
    differ = (g for g in range(1, g_max + 1) if dmax(g) + 1 != dmax_piecewise(g))
    return [{"g": g, "reason": "piecewise forms differ"} for g in _first(differ)]


def _f_bounds(n_max):
    violated = (n for n in range(2, n_max + 1) if not n * n - 1 <= 4 * (half_product(n) + 1) <= n * n)
    return [{"n": n, "reason": "half-product bound violated"} for n in _first(violated)]


def _multisets(budget, lo=2):
    """Every multiset of integers >= lo with sum <= budget, as a tuple."""
    for e in range(lo, budget + 1):
        yield (e,)
        yield from ((e, *rest) for rest in _multisets(budget - e, e))


def _lemma_n(sum_max, pair_max):
    # every multiset is misclassified, listed in lexicographic order, which
    # is the verifier's depth-first order
    rows = []
    for m in _first(sorted(_multisets(sum_max))):
        product = 1
        for e in m:
            product *= e
        efficient = product < 2 * sum(m)
        rows.append({"multiset": list(m), "oracle_efficient": efficient, "closed_form_efficient": not efficient})
    return rows


def _claim_f(s_max, delta_max, k_max, n_max):
    # every I_nc2 pair is (10^9, 2 s delta^2), in (s, delta) order; I_nc1 passes
    rows = []
    for s, delta in _first((s, delta) for s in range(1, s_max + 1) for delta in range(2, delta_max + 1)):
        target = Pair(10**9, 2 * s * delta * delta)
        row = {"family": "I_nc2", "s": s, "delta": delta, "pair": [target.d, target.g]}
        cells = ((k, n) for k in range(2, k_max + 1) for n in range(2, n_max + 1))
        found = next((kn for kn in cells if strictly_dominates(unitary_pair(*kn), target)), None)
        if found is None:
            row["reason"] = "no dominating unitary pair in range"
        else:
            row["reason"] = "designated witness failed; search found one"
            row["witness"] = {"family": "I", "k": found[0], "n": found[1]}
        rows.append(row)
    return rows


def _prop_estimate(g_max):
    return [
        {"g": g, "best_pair": best_indecomposable(g) + 10**6, "dmax": dmax(g), "reason": "bound violated"}
        for g in range(1, min(g_max, MAX_LISTED) + 1)
    ]


def _remark_domination(r_max, k_max):
    # every family II pair is (10^6, 2 r k), in (r, k) order; family III passes
    undominated = (
        (r, k)
        for r in range(4, r_max + 1)
        for k in range(2, k_max + 1)
        if not any(strictly_dominates(unitary_pair(k, n), Pair(10**6, 2 * r * k)) for n in range(2, 2 * r + 1))
    )
    reason = "no same-k dominating unitary pair"
    return [
        {"family": "II", "k": k, "r": r, "pair": [10**6, 2 * r * k], "reason": reason}
        for r, k in _first(undominated)
    ]


def _cor_c():
    return [{"g": g, "reason": f"self-check failed at g={g}"} for g in range(2, 24)]


def _cor_decoupled(rep_max, k_max):
    # dmax is 0, so every case is over the bound, k = 2 first, in catalog
    # order: A1, D4, then family I, whose first 48 cases have n <= 14
    labels = [satake.case("A1"), satake.case("D4")]
    labels += [satake.case("I", p=p, n=n) for n in range(3, min(rep_max, 14) + 1) for p in range(1, n // 2 + 1)]
    reason = "dimension bound violated"
    return [
        {"case": str(label), "k": 2, "lhs": satake.hss_dimension(label), "dmax": 0, "reason": reason}
        for label in labels[:MAX_LISTED]
    ]


ORACLES = {
    "lemma-dmax": _lemma_dmax,
    "dmax-piecewise": _dmax_piecewise,
    "f-bounds": _f_bounds,
    "lemma-N": _lemma_n,
    "claim-F": _claim_f,
    "prop-estimate": _prop_estimate,
    "remark-domination": _remark_domination,
    "cor-C": _cor_c,
    "cor-decoupled": _cor_decoupled,
}


def _peak(claim, overrides):
    tracemalloc.start()
    try:
        report = verify.run_verifier(claim, overrides)
        return tracemalloc.get_traced_memory()[1], report
    finally:
        tracemalloc.stop()


def test_cases_are_every_claim():
    assert sorted(EVERY_ITEM) == sorted(ORACLES) == sorted(verify.REGISTRY)


@pytest.mark.parametrize("claim", sorted(EVERY_ITEM))
def test_failing_run_costs_what_a_passing_run_does(monkeypatch, claim):
    seam, inject, overrides = EVERY_ITEM[claim]
    passing, report = _peak(claim, overrides)
    assert report.passed
    module, attr = seam.split(".")
    seamed = importlib.import_module(f"agdim.{module}")
    before = getattr(seamed, attr)
    inject(monkeypatch)
    assert getattr(seamed, attr) is not before, seam
    failing, report = _peak(claim, overrides)
    assert report.counterexamples == ORACLES[claim](**overrides)
    assert failing <= passing + LISTED_ROWS_BYTES, (passing, failing)
