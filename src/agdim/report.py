"""Shared result type and failure rule for the exhaustive claim verifiers.

A report fails exactly when it lists a counterexample: ``status`` is derived
from ``counterexamples`` and no verifier sets it.  A report lists at most
``MAX_LISTED`` counterexamples; the rest are dropped when it is built.  A
claim whose equality set is part of the statement reports a difference
through :func:`equality_diff`, in one shape for every claim.  Verifiers never
raise on mathematical failure, only on invalid usage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["MAX_LISTED", "VerificationReport", "equality_diff"]

MAX_LISTED = 50  # most counterexamples a report lists, and most rows in each list in one


@dataclass
class VerificationReport:
    """Outcome of one exhaustive check over a stated parameter range."""

    claim: str
    range: dict[str, int]
    counterexamples: list[dict] = field(default_factory=list)
    witnesses: list[dict] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.counterexamples = self.counterexamples[:MAX_LISTED]

    @property
    def status(self) -> str:
        return "fail" if self.counterexamples else "pass"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "range": dict(self.range),
            "status": self.status,
            "counterexamples": list(self.counterexamples),
            "witnesses": list(self.witnesses),
            "details": dict(self.details),
        }


def _counts(rows: np.ndarray) -> Counter:
    return Counter(map(tuple, rows.tolist()) if rows.ndim > 1 else rows.tolist())


def _listed(counts: Counter) -> list:
    """The rows of a multiset of rows, ascending, at most ``MAX_LISTED``."""
    rows = sorted(counts.elements())[:MAX_LISTED]
    return [list(row) if isinstance(row, tuple) else row for row in rows]


def equality_diff(reason: str, found, expected) -> list[dict]:
    """The counterexamples of an equality set that is part of a claim: none
    when ``found`` equals ``expected``, else one listing the rows found but
    not expected and the rows expected but not found (as multisets, so a
    repeated row counts), each list capped at ``MAX_LISTED``.  Rows are
    integers or integer pairs, given as arrays or lists in ascending order."""
    found = np.asarray(found, dtype=np.int64)
    expected = np.asarray(expected, dtype=np.int64)
    if np.array_equal(found, expected):
        return []
    have, want = _counts(found), _counts(expected)
    return [
        {"reason": reason, "unexpected": _listed(have - want), "missing": _listed(want - have)}
    ]
