"""Classification catalog of the irreducible Hermitian factors.

Each catalog row couples a group case (one of the ten classical families
below) with the four integers the dimension estimates consume: the complex
dimension of its Hermitian symmetric space, the dimension of its distinguished
irreducible complex representation, the self-duality type of that
representation, and whether arithmetic anisotropy forces at least one compact
real factor.

The families and their parameter constraints:

=========  ==========================  =====================================
family     parameters                  constraint
=========  ==========================  =====================================
A1         (none)                      -
D4         (none)                      -
I          p, n                        n >= 3, 1 <= p <= floor(n/2)
Iprime     n, c                        n >= 4, 2 <= c <= n - 2
II         r                           r >= 2, r != 4
III1       r                           r >= 2
III2       r                           r >= 2
IV1even    p  (group SO(2p-2, 2))      p >= 3, p != 4
IV1odd     p  (group SO(2p-1, 2))      p >= 2
IV2        r                           r >= 3, r != 4
=========  ==========================  =====================================

The excluded parameters r = 4 (II, IV2) and p = 4 (IV1even) are absorbed by
the separate D4 row.  The catalog is immutable data; no representation theory
is computed here.

:func:`family_grid` is the one enumeration of the catalog: per family (family
I in pieces), its parameter rows with their hss_dim and rep_dim as int64
arrays.  The cor-decoupled verifier reads those arrays, and :func:`iter_cases`
zips the export's rows from their columns, one ``(layout, ints)`` tuple per
case with no label and no dict; :func:`record` makes a row's JSON record,
and :func:`catalog_json` is the records of every row.  Each family is one
record: its parameter names, the range of a one-parameter
family (smallest parameter, parameter 4 absorbed by D4 or not) and its four
rules (the two dimensions, the duality type, the forced-compact-factor flag)
as functions of its parameters.  Validation, the label API and the grid all
read that record; the table above is its copy for readers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "SYMPLECTIC",
    "ORTHOGONAL",
    "NON_SELF_DUAL",
    "FAMILIES",
    "CaseLabel",
    "FamilyGrid",
    "case",
    "hss_dimension",
    "rep_dimension",
    "duality_type",
    "min_compact_factors",
    "family_grid",
    "iter_cases",
    "record",
    "catalog_json",
]

SYMPLECTIC = "symplectic"
ORTHOGONAL = "orthogonal"
NON_SELF_DUAL = "non-self-dual"

_PIECE = 4096  # about how many family-I cases family_grid yields in one piece


class _Family(NamedTuple):
    """One catalog family: its parameter names, its four rules as functions
    of the parameters (int64 arrays of them for family I's grid; the flag is
    explained in :func:`min_compact_factors`), and for a one-parameter
    family its smallest parameter and whether the D4 row absorbs 4."""

    params: tuple[str, ...]
    hss: Callable
    rep: Callable
    duality: Callable[..., str]
    min_compact: Callable[..., int]
    first: int = 0
    absorbed: bool = False


def _mod4_duality(x: int) -> str:
    """Duality of IV1even and IV2 (their spin representations) by x mod 4."""
    return {2: SYMPLECTIC, 0: ORTHOGONAL}.get(x % 4, NON_SELF_DUAL)


def _iprime_duality(n: int, c: int) -> str:
    """Duality of the c-th exterior power of the standard representation of SU(n)."""
    if 2 * c != n:
        return NON_SELF_DUAL
    return ORTHOGONAL if c % 2 == 0 else SYMPLECTIC


# Family iteration order is fixed so that catalog exports are deterministic.
_FAMILY: dict[str, _Family] = {
    "A1": _Family((), lambda: 1, lambda: 2, lambda: SYMPLECTIC, lambda: 0),
    "D4": _Family((), lambda: 6, lambda: 8, lambda: ORTHOGONAL, lambda: 0),
    "I": _Family(
        ("p", "n"), hss=lambda p, n: p * (n - p), rep=lambda p, n: n,
        duality=lambda p, n: NON_SELF_DUAL, min_compact=lambda p, n: 1,
    ),
    "Iprime": _Family(
        ("n", "c"), hss=lambda n, c: n - 1, rep=math.comb,
        duality=_iprime_duality, min_compact=lambda n, c: 1,
    ),
    "II": _Family(
        ("r",), first=2, absorbed=True, hss=lambda r: r * (r - 1) // 2, rep=lambda r: 2 * r,
        duality=lambda r: ORTHOGONAL, min_compact=lambda r: 1 if r >= 4 else 0,
    ),
    "III1": _Family(
        ("r",), first=2, hss=lambda r: r * (r + 1) // 2, rep=lambda r: 2 * r,
        duality=lambda r: SYMPLECTIC, min_compact=lambda r: 0,
    ),
    "III2": _Family(
        ("r",), first=2, hss=lambda r: r * (r + 1) // 2, rep=lambda r: 2 * r,
        duality=lambda r: SYMPLECTIC, min_compact=lambda r: 1,
    ),
    "IV1even": _Family(
        ("p",), first=3, absorbed=True, hss=lambda p: 2 * p - 2, rep=lambda p: 2 ** (p - 1),
        duality=_mod4_duality, min_compact=lambda p: 1,
    ),
    "IV1odd": _Family(
        ("p",), first=2, hss=lambda p: 2 * p - 1, rep=lambda p: 2**p,
        duality=lambda p: ORTHOGONAL if p % 4 in (0, 3) else SYMPLECTIC, min_compact=lambda p: 1,
    ),
    "IV2": _Family(
        ("r",), first=3, absorbed=True, hss=lambda r: 2 * r - 2, rep=lambda r: 2 ** (r - 1),
        duality=_mod4_duality, min_compact=lambda r: 1 if r >= 4 else 0,
    ),
}
FAMILIES = tuple(_FAMILY)


@dataclass(frozen=True, order=True)
class CaseLabel:
    """A catalog case: family name plus its integer parameters, validated
    against the family's constraint on construction."""

    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _validate(self.family, self.params)
        # numpy integers pass validation; store Python ints, which serialize
        object.__setattr__(self, "params", tuple(int(x) for x in self.params))

    def params_dict(self) -> dict[str, int]:
        return dict(zip(_FAMILY[self.family].params, self.params))

    def __str__(self) -> str:
        if not self.params:
            return self.family
        inner = ", ".join(f"{k}={v}" for k, v in self.params_dict().items())
        return f"{self.family}({inner})"


def case(family: str, **params: int) -> CaseLabel:
    """Construct a validated label, e.g. ``case("I", p=3, n=7)``."""
    if family not in _FAMILY:
        raise ValueError(f"unknown case family {family!r} (known: {FAMILIES})")
    names = _FAMILY[family].params
    if set(params) != set(names):
        raise ValueError(f"case {family} takes parameters {names} (got {tuple(params)})")
    return CaseLabel(family, tuple(params[name] for name in names))


def _validate(family: str, params: tuple[int, ...]) -> None:
    rule = _FAMILY.get(family)
    if rule is None:
        raise ValueError(f"unknown case family {family!r} (known: {FAMILIES})")
    names = rule.params
    if len(params) != len(names):
        raise ValueError(f"case {family} takes parameters {names} (got {params})")
    for name, x in zip(names, params):
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"case {family} takes integer parameters (got {name}={x!r})")
    if family == "I":
        p, n = params
        if n < 3:
            raise ValueError(f"case I requires n >= 3 (got n={n})")
        if not 1 <= p <= n // 2:
            raise ValueError(f"case I requires 1 <= p <= floor(n/2) (got p={p}, n={n})")
    elif family == "Iprime":
        n, c = params
        if n < 4:
            raise ValueError(f"case Iprime requires n >= 4 (got n={n})")
        if not 2 <= c <= n - 2:
            raise ValueError(f"case Iprime requires 2 <= c <= n-2 (got c={c}, n={n})")
    elif names:
        (name,), (x,) = names, params
        if x < rule.first or (rule.absorbed and x == 4):
            bound = f"{name} >= {rule.first}" + (f" with {name} != 4" if rule.absorbed else "")
            raise ValueError(f"case {family} requires {bound} (got {name}={x})")


def hss_dimension(label: CaseLabel) -> int:
    """Complex dimension of the Hermitian symmetric space of the case."""
    return _FAMILY[label.family].hss(*label.params)


def rep_dimension(label: CaseLabel) -> int:
    """Dimension of the distinguished irreducible complex representation."""
    return _FAMILY[label.family].rep(*label.params)


def duality_type(label: CaseLabel) -> str:
    """Self-duality type of the representation: symplectic, orthogonal, or
    not self-dual."""
    return _FAMILY[label.family].duality(*label.params)


def min_compact_factors(label: CaseLabel) -> int:
    """1 when anisotropy of the ambient rational group forces at least one
    compact real factor, 0 otherwise.

    This is data, not a computation: the local-global criteria apply to a
    symmetric bilinear form of rank >= 5, a Hermitian form of rank >= 3 over a
    CM field, a Hermitian form of rank >= 2 over a quaternion algebra, a
    Hermitian form of rank >= 3 over a larger division algebra, and a
    skew-Hermitian quaternionic form of rank >= 4.  Per family:

    * I/Iprime carry a CM-Hermitian form of rank n >= 3, so always 1
      (the division-algebra subfamilies that evade this live in
      :mod:`agdim.pairs` as their own pair families);
    * II and IV2 carry a skew-Hermitian quaternionic form of rank r, so 1
      exactly when r >= 4;
    * III2 carries a quaternionic Hermitian form of rank r >= 2, so always 1;
    * IV1even/IV1odd carry a symmetric form of rank 2p >= 6 resp. 2p+1 >= 5,
      so always 1;
    * III1 carries an alternating form, which is always isotropic, and A1 and
      D4 are not covered by the criteria, so these are 0.
    """
    return _FAMILY[label.family].min_compact(*label.params)


@dataclass(frozen=True)
class FamilyGrid:
    """The catalog cases of one family with rep_dim <= some bound, in catalog
    order: row i of ``params`` holds the parameters of case i (in the order
    of the family's parameter names), and ``hss_dim``/``rep_dim`` its
    dimensions, all int64."""

    family: str
    params: np.ndarray
    hss_dim: np.ndarray
    rep_dim: np.ndarray

    def label(self, i: int) -> CaseLabel:
        return CaseLabel(self.family, tuple(self.params[i].tolist()))


def _family_i(n_lo: int, n_hi: int) -> FamilyGrid:
    """The family I cases with n_lo <= n <= n_hi (n from 3, then
    1 <= p <= n/2), built as arrays."""
    n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    per_n = n // 2
    n = np.repeat(n, per_n)
    first = np.repeat(np.cumsum(per_n) - per_n, per_n)
    p = np.arange(n.size, dtype=np.int64) - first + 1
    rule = _FAMILY["I"]
    return FamilyGrid("I", np.stack([p, n], axis=1), rule.hss(p, n), rule.rep(p, n))


def _small_family(family: str, max_rep_dim: int) -> FamilyGrid:
    """The grid of a family other than I: its cases with rep_dim <=
    max_rep_dim, ascending (a few hundred rows at most)."""
    rule = _FAMILY[family]
    rows: list[tuple[int, ...]] = []
    if not rule.params:
        rows = [()] if rule.rep() <= max_rep_dim else []
    elif family == "Iprime":
        n = 4
        while rule.rep(n, 2) <= max_rep_dim:  # C(n, 2) <= C(n, c) for 2 <= c <= n-2
            rows += [(n, c) for c in range(2, n - 1) if rule.rep(n, c) <= max_rep_dim]
            n += 1
    else:
        x = rule.first
        while rule.rep(x) <= max_rep_dim:  # rep_dim grows with the parameter
            if x != 4 or not rule.absorbed:
                rows.append((x,))
            x += 1
    return FamilyGrid(
        family,
        np.array(rows, dtype=np.int64).reshape(len(rows), len(rule.params)),
        np.array([rule.hss(*r) for r in rows], dtype=np.int64),
        np.array([rule.rep(*r) for r in rows], dtype=np.int64),
    )


def family_grid(max_rep_dim: int) -> Iterator[FamilyGrid]:
    """The one enumeration of the catalog: the grid of each family in
    ``FAMILIES`` order, with family I (about max_rep_dim^2 / 4 cases) cut
    into pieces of about ``_PIECE`` cases (whole values of n), so that a
    reader of every case holds one piece at a time.  Family I yields no
    piece when max_rep_dim < 3; every other family yields one grid, empty
    where no case has rep_dim <= max_rep_dim (a few hundred cases between
    them)."""
    for family in FAMILIES:
        if family != "I":
            yield _small_family(family, max_rep_dim)
            continue
        n = 3
        while n <= max_rep_dim:
            # n..n_hi holds about (n_hi^2 - n^2) / 4 cases
            n_hi = min(max_rep_dim, max(n, math.isqrt(n * n + 4 * _PIECE)))
            yield _family_i(n, n_hi)
            n = n_hi + 1


def _rule_column(rule: Callable, cols: list[list[int]]) -> Iterator:
    """``rule`` of each case, from the parameter columns of the cases; a
    family with no parameter repeats its one value (a zip with the cases'
    other columns ends it)."""
    return map(rule, *cols) if cols else repeat(rule())


def iter_cases(max_rep_dim: int) -> Iterator[tuple[tuple[str, str], tuple[int, ...]]]:
    """Every catalog case with rep_dim <= max_rep_dim as one row ``(layout,
    ints)``: ``layout`` is ``(case, duality)``, its string leaves, and
    ``ints`` is ``(*params, hss_dim, rep_dim, min_compact_factors)``, its
    integer leaves; :func:`record` makes the JSON record of a row.  Every
    integer leaf is exactly ``int`` (from ``.tolist()`` and the integer
    rules) and every layout leaf exactly ``str``: the export fills its row
    templates with them unchecked, and ``%s`` writes a ``bool`` or a numpy
    integer otherwise than json does.  The order is deterministic (family
    order as in the module docstring, then ascending parameters).  The rows
    of each piece of :func:`family_grid` are zipped from its columns, so
    memory stays flat and nothing is built per case but the row.  The export
    reads its rows here, one yield per case, so that perfbench's tracer,
    which wraps this function, counts the cases of every export.
    """
    for grid in family_grid(max_rep_dim):
        rule = _FAMILY[grid.family]
        cols = grid.params.T.tolist()
        layouts = zip(repeat(grid.family), _rule_column(rule.duality, cols))
        flags = _rule_column(rule.min_compact, cols)
        yield from zip(layouts, zip(*cols, grid.hss_dim.tolist(), grid.rep_dim.tolist(), flags))


def record(layout: tuple[str, str], ints: tuple[int, ...]) -> dict:
    """The JSON-ready record of an :func:`iter_cases` row, with fixed field
    names and order: case, params, hss_dim, rep_dim, duality,
    min_compact_factors."""
    family, duality = layout
    *params, hss, rep, flag = ints
    return {
        "case": family,
        "params": dict(zip(_FAMILY[family].params, params)),
        "hss_dim": hss,
        "rep_dim": rep,
        "duality": duality,
        "min_compact_factors": flag,
    }


def catalog_json(max_rep_dim: int) -> list[dict]:
    """The JSON-ready record of every catalog case, in catalog order."""
    return [record(*row) for row in iter_cases(max_rep_dim)]
