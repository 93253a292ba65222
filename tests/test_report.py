from collections import Counter

import numpy as np
import pytest

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
        assert equality_diff("r", np.array([2, 16]), [2, 16]) == []
        assert equality_diff("r", np.empty((0, 2), dtype=np.int64), np.empty((0, 2))) == []
        # an empty list of pairs has no second axis; it is still the empty set
        assert equality_diff("r", [], np.empty((0, 2))) == []

    def test_unexpected_and_missing_rows(self):
        found = np.array([[1, 4], [2, 6]])
        assert equality_diff("r", found, [[1, 4], [4, 8]]) == [
            {"reason": "r", "unexpected": [[2, 6]], "missing": [[4, 8]]}
        ]

    def test_each_list_capped(self):
        (diff,) = equality_diff("r", np.arange(0, 200, 2), np.arange(1, 200, 2))
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


def test_equality_diff_matches_counter_reference():
    rng = np.random.default_rng(11)
    for trial in range(400):
        shape = (lambda n: (n, 2)) if trial % 2 else (lambda n: (n,))
        rows = [rng.integers(-9, 9, shape(int(rng.integers(0, 130)))) for _ in range(2)]
        found, expected = (
            r[np.lexsort(r.T[::-1])] if r.ndim > 1 else np.sort(r) for r in rows
        )
        assert equality_diff("r", found, expected) == counter_diff("r", found, expected)
    assert equality_diff("r", [], [[1, 4], [4, 8]]) == counter_diff("r", [], [[1, 4], [4, 8]])
