from collections import Counter

import numpy as np
import pytest

from agdim import kernels, verify
from agdim.arith import dmax
from agdim.report import MAX_LISTED, VerificationReport, equality_diff


def test_status_follows_from_counterexamples():
    assert VerificationReport(claim="c", range={}).status == "pass"
    failed = VerificationReport(claim="c", range={}, counterexamples=[{"g": 1}])
    assert failed.status == "fail" and not failed.passed
    assert list(failed.to_dict()) == [
        "claim", "range", "status", "counterexamples", "witnesses", "details"
    ]


def test_failing_report_gives_the_full_count():
    rows = [{"g": g} for g in range(70)]
    built, seen = VerificationReport(claim="c", range={}), []
    # failures given as an array, with rows built only for the listed ones;
    # then a kernel's count beyond the values it returned; then a ready row
    built.add(np.arange(60), lambda g: seen.append(g) or {"g": g})
    built.add(np.arange(60, 62), lambda g: pytest.fail("no room"), total=10)
    built.add([{"g": -1}])
    everything = VerificationReport(claim="c", range={}, counterexamples=rows + [{"g": -1}])
    assert seen == list(range(MAX_LISTED))
    assert built.to_dict() == everything.to_dict()
    assert built.to_dict()["details"] == {"counterexamples_total": 71}
    assert built.counterexamples == rows[:MAX_LISTED]
    # a passing report's details are exactly what the verifier gave
    passing = VerificationReport(claim="c", range={}, details={"n": 1})
    passing.add(np.empty((0, 2), dtype=np.int64), lambda ab: pytest.fail("nothing to list"))
    assert passing.to_dict()["details"] == {"n": 1} and passing.passed


class TestEqualityDiff:
    def test_equal_sets_give_nothing(self):
        assert equality_diff("r", [], []) == []

    def test_unexpected_and_missing_rows(self):
        assert equality_diff("r", [[2, 6]], [[4, 8]]) == [
            {"reason": "r", "unexpected": [[2, 6]], "missing": [[4, 8]]}
        ]
        assert equality_diff("r", [3], []) == [{"reason": "r", "unexpected": [3], "missing": []}]
        assert equality_diff("r", [], [16]) == [{"reason": "r", "unexpected": [], "missing": [16]}]

    def test_each_list_capped(self):
        (diff,) = equality_diff("r", list(range(0, 200, 2)), list(range(1, 200, 2)))
        assert diff["unexpected"] == list(range(0, 2 * MAX_LISTED, 2))
        assert diff["missing"] == list(range(1, 2 * MAX_LISTED, 2))


def counter_diff(reason, found, expected):
    """The multiset difference through collections.Counter, as the reference."""
    found, expected = np.asarray(found), np.asarray(expected)
    if np.array_equal(found, expected):
        return []

    def counts(rows):
        return Counter(map(tuple, rows.tolist()) if rows.ndim > 1 else rows.tolist())

    def listed(c):
        return [list(r) if isinstance(r, tuple) else r for r in sorted(c.elements())[:MAX_LISTED]]

    have, want = counts(found), counts(expected)
    return [{"reason": reason, "unexpected": listed(have - want), "missing": listed(want - have)}]


def lemma_dmax_reference(D):
    """lemma-dmax's counterexamples for the table D[g] (D[0] ignored), from
    every pair in Python ints."""
    g_max = len(D) - 1
    violations, found = [], []
    for g1 in range(1, g_max // 2 + 1):
        for g2 in range(g1, g_max - g1 + 1):
            diff = D[g1 + g2] - D[g1] - D[g2]
            if diff < 0:
                violations.append({"g1": g1, "g2": g2, "reason": "superadditivity violated"})
            elif diff == 0:
                found.append((g1, g2))
    return violations + counter_diff(
        "equality set differs from {(1, even g2 >= 16)}",
        np.array(found, dtype=np.int64).reshape(-1, 2),
        np.array([(1, g2) for g2 in range(16, g_max, 2)], dtype=np.int64).reshape(-1, 2),
    )


def prop_estimate_reference(best, dm):
    """prop-estimate's counterexamples for the best pairs best[g] and dmax
    values dm[g] (index 0 ignored), genus by genus in Python ints."""
    g_max = len(best) - 1
    violations = [
        {"g": g, "best_pair": best[g], "dmax": dm[g], "reason": "bound violated"}
        for g in range(1, g_max + 1)
        if best[g] > dm[g]
    ]
    return violations + counter_diff(
        "equality genera differ from {2} union {even g >= 16}",
        [g for g in range(2, g_max + 1) if best[g] == dm[g]],
        [2, *range(16, g_max + 1, 2)],
    )


def test_equality_diff_matches_counter_reference(monkeypatch):
    # Each claim checks its equality set against its rule where it finds the
    # equalities; here each claim's counterexamples, the equality difference
    # among them, are checked against the whole found and stated sets.
    # lemma-dmax runs with dmax moved by one at random genera, prop-estimate
    # with the best pair set to dmax - 1, dmax or dmax + 1 at random genera,
    # in chunks of 7 or 11 genera or one chunk.
    rng = np.random.default_rng(2404)
    real_dmax, real_table, chunk = kernels.dmax_values, kernels.best_indec_table, kernels.CHUNK
    two_sided = {"lemma-dmax": 0, "prop-estimate": 0}
    for trial in range(60):
        g_max = int(rng.integers(2, 160))
        at = rng.integers(1, g_max + 1, int(rng.integers(0, 12)))
        step = np.zeros(g_max + 1, dtype=np.int64)
        step[at] = rng.integers(-1, 2, at.size)
        dm = [0] + [dmax(g) for g in range(1, g_max + 1)]
        if trial % 2 == 0:
            claim = "lemma-dmax"
            step[at] |= 1  # -1 or 1
            monkeypatch.setattr(kernels, "dmax_values", lambda gs: real_dmax(gs) + step[gs])
            want = lemma_dmax_reference([d + int(s) for d, s in zip(dm, step)])
        else:
            claim = "prop-estimate"
            table = real_table(g_max)
            table[at] = np.array(dm)[at] + step[at]
            monkeypatch.setattr(kernels, "dmax_values", real_dmax)
            monkeypatch.setattr(kernels, "best_indec_table", lambda n: table.copy())
            monkeypatch.setattr(kernels, "CHUNK", [7, 11, chunk][trial % 3])
            want = prop_estimate_reference(table.tolist(), dm)
        report = verify.run_verifier(claim, {"g_max": g_max})
        assert report.counterexamples == want[:MAX_LISTED], (claim, g_max)
        assert len(report.counterexamples) + report.unlisted == len(want)
        diffs = [c for c in report.counterexamples if "missing" in c]
        two_sided[claim] += any(d["unexpected"] and d["missing"] for d in diffs)
    assert min(two_sided.values()) >= 5, two_sided
