"""Shared result type and failure rule for the exhaustive claim verifiers.

A report fails exactly when it lists a counterexample: ``status`` is derived
from ``counterexamples`` and no verifier sets it.  A report lists at most
``MAX_LISTED`` counterexamples, and a failing report gives the full count in
``details["counterexamples_total"]``.  A verifier hands its failures to
:meth:`VerificationReport.add` in the order it finds them, which counts every
one and builds a row only for those the report lists, so unlisted failures
cost no rows.  A bulk verifier lists a failure mask through the one listing
primitive, ``kernels._listing``: given the mask and the report's ``room``,
it returns the mask's count and its first indices in order, a pair that
``add`` takes as it is, so this module needs no numpy.  A claim whose
equality set is part of the statement checks it against its rule where it
finds the equalities, and reports a difference through
:func:`equality_diff`, in one shape for every claim.  A table of witnesses
is held as rows, with the ``record`` of a row, for an export to write.
Verifiers never raise on mathematical failure, only on invalid usage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["MAX_LISTED", "VerificationReport", "equality_diff"]

MAX_LISTED = 50  # most counterexamples a report lists, and most rows in each list in one


@dataclass
class VerificationReport:
    """Outcome of one exhaustive check over a stated parameter range."""

    claim: str
    range: dict[str, int]
    counterexamples: list[dict] = field(default_factory=list)
    witnesses: list = field(default_factory=list)  # dicts, or rows when ``record`` is set
    details: dict[str, Any] = field(default_factory=dict)
    unlisted: int = 0  # counterexamples found but not in ``counterexamples``
    record: Callable[..., dict] | None = None  # the record of a witness row

    def __post_init__(self) -> None:
        self.unlisted += max(0, len(self.counterexamples) - MAX_LISTED)
        self.counterexamples = self.counterexamples[:MAX_LISTED]

    @property
    def room(self) -> int:
        """How many more counterexamples the report lists."""
        return MAX_LISTED - len(self.counterexamples)

    def add(self, failures, row=None, total=None) -> None:
        """Count ``total`` failures (by default ``len(failures)``) and list
        ``row(x)`` for each item x of ``failures``, in order, while fewer than
        ``MAX_LISTED`` are listed; ``row=None`` lists the items themselves.
        ``failures`` is a list, an array read through ``.tolist()``, or the
        pair (total, indices) that ``kernels._listing`` returns."""
        if isinstance(failures, tuple):
            total, failures = failures
        listed = failures[: self.room]
        if not isinstance(listed, list):
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
            "witnesses": [self.record(*w) for w in self.witnesses] if self.record else list(self.witnesses),
            "details": details,
        }


def equality_diff(reason: str, unexpected: list, missing: list) -> list[dict]:
    """The counterexamples of an equality set that is part of a claim: none
    when nothing is ``unexpected`` (found but not stated) or ``missing``
    (stated but not found), else one listing the first ``MAX_LISTED`` of
    each.  Each list holds integers or integer pairs in ascending order."""
    if not unexpected and not missing:
        return []
    return [
        {"reason": reason, "unexpected": unexpected[:MAX_LISTED], "missing": missing[:MAX_LISTED]}
    ]
