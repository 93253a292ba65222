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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .arith import dmax
from .report import MAX_LISTED, VerificationReport

__all__ = [
    "Multiset",
    "prod_sum",
    "is_efficient_oracle",
    "is_efficient_closed",
    "in_unbounded_family",
    "iter_multisets",
    "verify_efficiency_classification",
    "check_factor_dimension_budget",
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
        canon = tuple(sorted(int(e) for e in elements))
        if not canon:
            raise ValueError("multiset must be nonempty")
        if canon[0] < 2:
            raise ValueError(f"multiset elements must be >= 2 (got {canon[0]})")
        object.__setattr__(self, "elements", canon)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

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


def is_efficient_closed(N: Multiset) -> bool:
    """Membership in the closed-form list of efficient multisets."""
    e = N.elements
    if len(e) == 1:
        return True
    if len(e) == 2:
        a, b = e
        if a == 2:
            return True
        return a == 3 and 3 <= b <= 5
    if len(e) == 3:
        return e[0] == 2 and e[1] == 2 and e[2] <= 3
    return False


def in_unbounded_family(N: Multiset) -> bool:
    """True for the two families that stay efficient for arbitrarily large
    elements: singletons {b} and {2, b}."""
    e = N.elements
    return len(e) == 1 or (len(e) == 2 and e[0] == 2)


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
    conclusive margin)."""
    if sum_max < 2:
        raise ValueError(f"sum_max must be >= 2 (got {sum_max})")
    counterexamples: list[dict] = []
    unlisted = 0
    checked = 0
    max_sum_outside = 0
    max_outside: tuple[int, ...] | None = None
    for elements in iter_multisets(sum_max):
        checked += 1
        N = Multiset(elements)
        oracle = is_efficient_oracle(N)
        if oracle != is_efficient_closed(N):
            if len(counterexamples) == MAX_LISTED:
                unlisted += 1
            else:
                counterexamples.append(
                    {
                        "multiset": list(elements),
                        "oracle_efficient": oracle,
                        "closed_form_efficient": not oracle,
                    }
                )
        if oracle and not in_unbounded_family(N):
            s = sum(elements)
            if s > max_sum_outside:
                max_sum_outside = s
                max_outside = elements
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


def check_factor_dimension_budget(
    summands: list[tuple[int, int]], g: int
) -> dict[str, object]:
    """Arithmetic skeleton of the inefficient-representation estimate.

    Given the simple rational factors of a group as (k_j, dim U_j) pairs --
    k_j real places, U_j the distinguished irreducible summand -- and the
    claimed half-dimension g of the ambient symplectic space, check the two
    numeric steps the estimate rests on:

    * the dimension budget g >= sum_j k_j * dim U_j, and
    * superadditivity: sum_j dmax(k_j * dim U_j) <= dmax(g).

    Returns the evaluated quantities plus an ``ok`` verdict; raises only on
    malformed input.
    """
    if not summands:
        raise ValueError("need at least one (k, dim_u) summand")
    for k, dim_u in summands:
        if k < 1:
            raise ValueError(f"factor multiplicity must be >= 1 (got k={k})")
        if dim_u < 2:
            raise ValueError(f"summand dimension must be >= 2 (got {dim_u})")
    if g < 1:
        raise ValueError(f"g must be >= 1 (got {g})")
    total = sum(k * dim_u for k, dim_u in summands)
    budget_ok = g >= total
    sum_dmax = sum(dmax(k * dim_u) for k, dim_u in summands)
    superadditive_ok = budget_ok and sum_dmax <= dmax(g)
    return {
        "summands": [list(s) for s in summands],
        "g": g,
        "required_dimension": total,
        "budget_ok": budget_ok,
        "sum_of_dmax": sum_dmax,
        "dmax_g": dmax(g),
        "superadditive_ok": superadditive_ok,
        "ok": budget_ok and superadditive_ok,
    }
