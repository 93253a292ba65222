"""Shared result type and failure rule for the exhaustive claim verifiers.

A report fails exactly when it lists a counterexample: ``status`` is derived
from ``counterexamples`` and no verifier sets it.  A report lists at most
``MAX_LISTED`` counterexamples, and a failing report gives the full count in
``details["counterexamples_total"]``.  A verifier hands its failures to
:meth:`VerificationReport.add` in the order it finds them, which counts every
one and builds a row only for those the report lists, so unlisted failures
cost no rows.  A claim whose equality set is part of the statement reports a
difference through :func:`equality_diff`, in one shape for every claim; it
sorts both sets whole, so a failing claim's peak can pass a passing one's.
Verifiers never raise on mathematical failure, only on invalid usage.
"""

from __future__ import annotations

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
    unlisted: int = 0  # counterexamples found but not in ``counterexamples``

    def __post_init__(self) -> None:
        self.unlisted += max(0, len(self.counterexamples) - MAX_LISTED)
        self.counterexamples = self.counterexamples[:MAX_LISTED]

    def add(self, failures, row=None, total=None) -> None:
        """Count ``total`` failures (by default ``len(failures)``) and list
        ``row(x)`` for each item x of ``failures``, in order, while fewer than
        ``MAX_LISTED`` are listed; ``row=None`` lists the items themselves.
        ``failures`` is a list or an array, read through ``.tolist()``."""
        listed = failures[: MAX_LISTED - len(self.counterexamples)]
        if isinstance(listed, np.ndarray):
            listed = listed.tolist()
        self.counterexamples += listed if row is None else [row(x) for x in listed]
        self.unlisted += (len(failures) if total is None else total) - len(listed)

    @property
    def status(self) -> str:
        return "fail" if self.counterexamples else "pass"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict[str, Any]:
        details = dict(self.details)
        if self.counterexamples:
            details["counterexamples_total"] = len(self.counterexamples) + self.unlisted
        return {
            "claim": self.claim,
            "range": dict(self.range),
            "status": self.status,
            "counterexamples": list(self.counterexamples),
            "witnesses": list(self.witnesses),
            "details": details,
        }


def _excess(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The first ``MAX_LISTED`` rows, ascending, of the multiset difference
    ``rows`` - ``other`` of two 2-D row arrays, in O(len) int64 memory."""
    both = np.concatenate([rows, other])
    order = np.lexsort(both.T[::-1])  # rows ascending, first column first
    ordered = both[order]
    starts = np.flatnonzero(np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
    surplus = np.maximum(np.add.reduceat(np.where(order < len(rows), 1, -1), starts), 0)
    upto = int(np.searchsorted(np.cumsum(surplus), MAX_LISTED)) + 1
    return np.repeat(ordered[starts[:upto]], surplus[:upto], axis=0)[:MAX_LISTED]


def equality_diff(reason: str, found, expected) -> list[dict]:
    """The counterexamples of an equality set that is part of a claim: none
    when ``found`` equals ``expected``, else one listing the rows found but
    not expected and the rows expected but not found (as multisets, so a
    repeated row counts), each list ascending and capped at ``MAX_LISTED``.
    Rows are integers or integer pairs, given as arrays or lists in ascending
    order."""
    found = np.asarray(found, dtype=np.int64)
    expected = np.asarray(expected, dtype=np.int64)
    pairs = max(found.ndim, expected.ndim) > 1
    width = 2 if pairs else 1
    have, want = found.reshape(-1, width), expected.reshape(-1, width)
    if np.array_equal(have, want):
        return []

    def listed(rows: np.ndarray) -> list:
        return rows.tolist() if pairs else rows[:, 0].tolist()

    return [
        {
            "reason": reason,
            "unexpected": listed(_excess(have, want)),
            "missing": listed(_excess(want, have)),
        }
    ]
