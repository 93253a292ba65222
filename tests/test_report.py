import numpy as np

from agdim.report import MAX_LISTED, VerificationReport, equality_diff


def test_status_follows_from_counterexamples():
    assert VerificationReport(claim="c", range={}).status == "pass"
    failed = VerificationReport(claim="c", range={}, counterexamples=[{"g": 1}])
    assert failed.status == "fail" and not failed.passed
    assert list(failed.to_dict()) == [
        "claim", "range", "status", "counterexamples", "witnesses", "details"
    ]


class TestEqualityDiff:
    def test_equal_sets_give_nothing(self):
        assert equality_diff("r", np.array([2, 16]), [2, 16]) == []
        assert equality_diff("r", np.empty((0, 2), dtype=np.int64), np.empty((0, 2))) == []

    def test_unexpected_and_missing_rows(self):
        found = np.array([[1, 4], [2, 6]])
        assert equality_diff("r", found, [[1, 4], [4, 8]]) == [
            {"reason": "r", "unexpected": [[2, 6]], "missing": [[4, 8]]}
        ]

    def test_each_list_capped(self):
        (diff,) = equality_diff("r", np.arange(0, 200, 2), np.arange(1, 200, 2))
        assert diff["unexpected"] == list(range(0, 2 * MAX_LISTED, 2))
        assert diff["missing"] == list(range(1, 2 * MAX_LISTED, 2))
