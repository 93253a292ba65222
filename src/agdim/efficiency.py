"""Multiset product/sum machinery for the non-decoupled estimates.

A finite multiset N of integers >= 2 is *inefficient* when
Prod(N) >= 2 Sum(N), and *efficient* otherwise.  The closed classification of
the efficient multisets is

    (i)  {b};                (ii)  {2, b};
    (iii) {3, b}, 3 <= b <= 5;  (iv) {2, 2, b}, 2 <= b <= 3;

families (i) and (ii) are efficient for every b, which is a two-line algebra
fact; every other efficient multiset has sum at most 8.  The oracle here
recomputes efficiency directly from the definition so the classification can
be re-proved by exhaustion over a finite window.

The list is one rule, :func:`closed_form_efficient`, on a sorted multiset's
size, two smallest elements and largest element; :func:`is_efficient_closed`
applies it to a :class:`Multiset`, and the exhaustive check applies it to
every multiset of its window without building one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .report import MAX_LISTED, VerificationReport

__all__ = [
    "Multiset",
    "prod_sum",
    "is_efficient_oracle",
    "closed_form_efficient",
    "is_efficient_closed",
    "iter_multisets",
    "verify_efficiency_classification",
]

# Efficient multisets outside the unbounded families (i)-(ii) all have sum
# <= 8; 14 is the documented safe margin asserted by the window check.
MAX_SUM_OUTSIDE_UNBOUNDED = 14


@dataclass(frozen=True)
class Multiset:
    """Finite multiset of integers >= 2, canonically sorted ascending;
    equality and hashing are on the canonical form."""

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]):
        canon = tuple(sorted(map(int, elements)))
        if not canon:
            raise ValueError("multiset must be nonempty")
        if canon[0] < 2:
            raise ValueError(f"multiset elements must be >= 2 (got {canon[0]})")
        object.__setattr__(self, "elements", canon)

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


def prod_sum(N: Multiset) -> tuple[int, int]:
    """(Prod(N), Sum(N)).  For two or more elements Prod >= Sum always holds;
    singletons have Prod = Sum."""
    return math.prod(N.elements), sum(N.elements)


def is_efficient_oracle(N: Multiset) -> bool:
    """Direct from the definition: efficient iff Prod(N) < 2 Sum(N)."""
    prod, total = prod_sum(N)
    return prod < 2 * total


def closed_form_efficient(size: int, smallest: int, second: int, largest: int) -> bool:
    """The closed-form list of efficient multisets, as one rule on a sorted
    multiset's size, two smallest elements and largest element (for a
    singleton all three are its element): {b}, {2, b}, {3, b} with
    3 <= b <= 5, {2, 2, b} with 2 <= b <= 3."""
    if size == 1:
        return True
    if size == 2:
        return smallest == 2 or (smallest == 3 and 3 <= largest <= 5)
    if size == 3:
        return smallest == 2 and second == 2 and largest <= 3
    return False


def _unbounded(size: int, smallest: int | None) -> bool:
    return size == 1 or (size == 2 and smallest == 2)


def is_efficient_closed(N: Multiset) -> bool:
    """Membership in the closed-form list of efficient multisets."""
    e = N.elements
    return closed_form_efficient(len(e), e[0], e[min(1, len(e) - 1)], e[-1])


def iter_multisets(sum_max: int, min_element: int = 2) -> Iterator[tuple[int, ...]]:
    """All nonempty multisets (as sorted tuples) with elements >=
    min_element and sum <= sum_max, in lexicographic order."""

    def rec(prefix: list[int], smallest: int, budget: int) -> Iterator[tuple[int, ...]]:
        for e in range(smallest, budget + 1):
            prefix.append(e)
            yield tuple(prefix)
            yield from rec(prefix, e, budget - e)
            prefix.pop()

    yield from rec([], min_element, sum_max)


def verify_efficiency_classification(sum_max: int) -> VerificationReport:
    """Exhaustively compare the closed classification with the definition on
    every multiset with elements >= 2 and sum <= sum_max, and record the
    largest sum of an efficient multiset outside the two unbounded families
    (must stay <= 14; the true maximum is 8, giving the window a wide
    conclusive margin).

    The multisets are visited in the order of :func:`iter_multisets`, as one
    recursion that carries each prefix's product, sum, size and two smallest
    elements, so a multiset costs one oracle test and one call of
    :func:`closed_form_efficient`, and no object.
    """
    if sum_max < 2:
        raise ValueError(f"sum_max must be >= 2 (got {sum_max})")
    closed = closed_form_efficient
    counterexamples: list[dict] = []
    unlisted = 0
    checked = 0
    max_sum_outside = 0
    max_outside: tuple[int, ...] | None = None

    def visit(prefix: list[int], prod: int, total: int, lo: int, budget: int) -> None:
        """Every multiset prefix + [e, ...] with e >= lo and sum <= total + budget."""
        nonlocal checked, unlisted, max_sum_outside, max_outside
        size = len(prefix) + 1
        smallest = prefix[0] if prefix else None
        second = prefix[1] if size > 2 else None
        unbounded = _unbounded(size, smallest)
        checked += budget - lo + 1  # lo <= budget on every call
        for e in range(lo, budget + 1):
            s = total + e
            oracle = prod * e < 2 * s
            if oracle != closed(size, smallest or e, second or e, e):
                if len(counterexamples) == MAX_LISTED:
                    unlisted += 1
                else:
                    counterexamples.append(
                        {
                            "multiset": prefix + [e],
                            "oracle_efficient": oracle,
                            "closed_form_efficient": not oracle,
                        }
                    )
            if oracle and not unbounded and s > max_sum_outside:
                max_sum_outside = s
                max_outside = (*prefix, e)
            if 2 * e <= budget:
                prefix.append(e)
                visit(prefix, prod * e, s, e, budget - e)
                prefix.pop()

    visit([], 1, 0, 2, sum_max)
    bound_ok = max_sum_outside <= MAX_SUM_OUTSIDE_UNBOUNDED
    if not bound_ok and max_outside is not None:
        counterexamples.append(
            {
                "multiset": list(max_outside),
                "reason": "efficient multiset outside the unbounded families "
                f"with sum {max_sum_outside} > {MAX_SUM_OUTSIDE_UNBOUNDED}",
            }
        )
    witnesses = [
        {
            "unbounded_families": ["{b}", "{2, b}"],
            "note": "efficient for every b by direct algebra; excluded from "
            "the max-sum bound",
        }
    ]
    return VerificationReport(
        claim="lemma-N",
        range={"sum_max": sum_max},
        counterexamples=counterexamples,
        witnesses=witnesses,
        details={
            "multisets_checked": checked,
            "max_sum_of_efficient_outside_unbounded": max_sum_outside,
            "margin_bound": MAX_SUM_OUTSIDE_UNBOUNDED,
        },
        unlisted=unlisted,
    )
