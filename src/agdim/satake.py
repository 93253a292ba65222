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
builds the JSON export's records from them with no label per row.  Each rule
(the two dimensions, the duality type, the forced-compact-factor flag) is one
function of (family, params) that the label API and the grid both call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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
    "catalog_json",
]

SYMPLECTIC = "symplectic"
ORTHOGONAL = "orthogonal"
NON_SELF_DUAL = "non-self-dual"

# Family iteration order is fixed so that catalog exports are deterministic.
FAMILIES = ("A1", "D4", "I", "Iprime", "II", "III1", "III2", "IV1even", "IV1odd", "IV2")

_PARAM_NAMES: dict[str, tuple[str, ...]] = {
    "A1": (),
    "D4": (),
    "I": ("p", "n"),
    "Iprime": ("n", "c"),
    "II": ("r",),
    "III1": ("r",),
    "III2": ("r",),
    "IV1even": ("p",),
    "IV1odd": ("p",),
    "IV2": ("r",),
}


@dataclass(frozen=True, order=True)
class CaseLabel:
    """A catalog case: family name plus its integer parameters, validated
    against the family's constraint on construction."""

    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _validate(self.family, self.params)

    def params_dict(self) -> dict[str, int]:
        return dict(zip(_PARAM_NAMES[self.family], self.params))

    def __str__(self) -> str:
        if not self.params:
            return self.family
        inner = ", ".join(f"{k}={v}" for k, v in self.params_dict().items())
        return f"{self.family}({inner})"


def case(family: str, **params: int) -> CaseLabel:
    """Construct a validated label, e.g. ``case("I", p=3, n=7)``."""
    if family not in _PARAM_NAMES:
        raise ValueError(f"unknown case family {family!r} (known: {FAMILIES})")
    names = _PARAM_NAMES[family]
    if set(params) != set(names):
        raise ValueError(f"case {family} takes parameters {names} (got {tuple(params)})")
    return CaseLabel(family, tuple(params[name] for name in names))


def _validate(family: str, params: tuple[int, ...]) -> None:
    names = _PARAM_NAMES.get(family)
    if names is None:
        raise ValueError(f"unknown case family {family!r} (known: {FAMILIES})")
    if len(params) != len(names):
        raise ValueError(f"case {family} takes parameters {names} (got {params})")
    values = dict(zip(names, params))
    if family == "I":
        p, n = values["p"], values["n"]
        if n < 3:
            raise ValueError(f"case I requires n >= 3 (got n={n})")
        if not 1 <= p <= n // 2:
            raise ValueError(f"case I requires 1 <= p <= floor(n/2) (got p={p}, n={n})")
    elif family == "Iprime":
        n, c = values["n"], values["c"]
        if n < 4:
            raise ValueError(f"case Iprime requires n >= 4 (got n={n})")
        if not 2 <= c <= n - 2:
            raise ValueError(f"case Iprime requires 2 <= c <= n-2 (got c={c}, n={n})")
    elif family == "II":
        r = values["r"]
        if r < 2 or r == 4:
            raise ValueError(f"case II requires r >= 2 with r != 4 (got r={r})")
    elif family in ("III1", "III2"):
        r = values["r"]
        if r < 2:
            raise ValueError(f"case {family} requires r >= 2 (got r={r})")
    elif family == "IV1even":
        p = values["p"]
        if p < 3 or p == 4:
            raise ValueError(f"case IV1even requires p >= 3 with p != 4 (got p={p})")
    elif family == "IV1odd":
        p = values["p"]
        if p < 2:
            raise ValueError(f"case IV1odd requires p >= 2 (got p={p})")
    elif family == "IV2":
        r = values["r"]
        if r < 3 or r == 4:
            raise ValueError(f"case IV2 requires r >= 3 with r != 4 (got r={r})")


def _hss(family: str, params):
    """hss_dim of a case from its family and parameters: ints, or int64
    arrays of parameters for family I."""
    if family == "A1":
        return 1
    if family == "D4":
        return 6
    if family == "I":
        p, n = params
        return p * (n - p)
    if family == "Iprime":
        return params[0] - 1
    (x,) = params
    if family == "II":
        return x * (x - 1) // 2
    if family in ("III1", "III2"):
        return x * (x + 1) // 2
    if family == "IV1even":
        return 2 * x - 2
    if family == "IV1odd":
        return 2 * x - 1
    if family == "IV2":
        return 2 * x - 2
    raise AssertionError(f"unhandled family {family}")


def _rep(family: str, params):
    """rep_dim of a case from its family and parameters: ints, or int64
    arrays of parameters for family I."""
    if family == "A1":
        return 2
    if family == "D4":
        return 8
    if family == "I":
        return params[1]
    if family == "Iprime":
        n, c = params
        return math.comb(n, c)
    (x,) = params
    if family in ("II", "III1", "III2"):
        return 2 * x
    if family == "IV1even":
        return 2 ** (x - 1)
    if family == "IV1odd":
        return 2**x
    if family == "IV2":
        return 2 ** (x - 1)
    raise AssertionError(f"unhandled family {family}")


def _duality(family: str, params: tuple[int, ...]) -> str:
    """Self-duality type of a case from its family and parameters."""
    if family == "A1":
        return SYMPLECTIC
    if family == "D4":
        return ORTHOGONAL
    if family == "I":
        return NON_SELF_DUAL
    if family == "Iprime":
        n, c = params
        if 2 * c != n:
            return NON_SELF_DUAL
        return ORTHOGONAL if c % 2 == 0 else SYMPLECTIC
    if family == "II":
        return ORTHOGONAL
    if family in ("III1", "III2"):
        return SYMPLECTIC
    if family in ("IV1even", "IV2"):
        m = params[0] % 4
        if m == 2:
            return SYMPLECTIC
        if m == 0:
            return ORTHOGONAL
        return NON_SELF_DUAL
    if family == "IV1odd":
        m = params[0] % 4
        return ORTHOGONAL if m in (0, 3) else SYMPLECTIC
    raise AssertionError(f"unhandled family {family}")


def _min_compact(family: str, params: tuple[int, ...]) -> int:
    """Forced-compact-factor flag of a case from its family and parameters
    (the rule is explained in :func:`min_compact_factors`)."""
    if family in ("I", "Iprime", "III2", "IV1even", "IV1odd"):
        return 1
    if family in ("II", "IV2"):
        return 1 if params[0] >= 4 else 0
    return 0


def hss_dimension(label: CaseLabel) -> int:
    """Complex dimension of the Hermitian symmetric space of the case."""
    return _hss(label.family, label.params)


def rep_dimension(label: CaseLabel) -> int:
    """Dimension of the distinguished irreducible complex representation."""
    return _rep(label.family, label.params)


def duality_type(label: CaseLabel) -> str:
    """Self-duality type of the representation: symplectic, orthogonal, or
    not self-dual."""
    return _duality(label.family, label.params)


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
    return _min_compact(label.family, label.params)


# The families whose parameter 4 is absorbed by the D4 row, and the smallest
# parameter of each one-parameter family.
_ABSORBED_BY_D4 = ("II", "IV1even", "IV2")
_FIRST_PARAM = {"II": 2, "III1": 2, "III2": 2, "IV1even": 3, "IV1odd": 2, "IV2": 3}


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


def _param_rows(family: str, max_rep_dim: int) -> list[tuple[int, ...]]:
    """Parameters of the cases of a family other than I with rep_dim <=
    max_rep_dim, ascending (a few hundred rows at most)."""
    if family in ("A1", "D4"):
        return [()] if _rep(family, ()) <= max_rep_dim else []
    rows: list[tuple[int, ...]] = []
    if family == "Iprime":
        n = 4
        while _rep(family, (n, 2)) <= max_rep_dim:  # C(n, 2) <= C(n, c) for 2 <= c <= n-2
            rows += [(n, c) for c in range(2, n - 1) if _rep(family, (n, c)) <= max_rep_dim]
            n += 1
        return rows
    x = _FIRST_PARAM[family]
    while _rep(family, (x,)) <= max_rep_dim:  # rep_dim grows with the parameter
        if x != 4 or family not in _ABSORBED_BY_D4:
            rows.append((x,))
        x += 1
    return rows


def _family_i(n_lo: int, n_hi: int) -> FamilyGrid:
    """The family I cases with n_lo <= n <= n_hi (n from 3, then
    1 <= p <= n/2), built as arrays."""
    n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    per_n = n // 2
    n = np.repeat(n, per_n)
    first = np.repeat(np.cumsum(per_n) - per_n, per_n)
    p = np.arange(n.size, dtype=np.int64) - first + 1
    return FamilyGrid("I", np.stack([p, n], axis=1), _hss("I", (p, n)), _rep("I", (p, n)))


def _small_family(family: str, max_rep_dim: int) -> FamilyGrid:
    rows = _param_rows(family, max_rep_dim)
    return FamilyGrid(
        family,
        np.array(rows, dtype=np.int64).reshape(len(rows), len(_PARAM_NAMES[family])),
        np.array([_hss(family, r) for r in rows], dtype=np.int64),
        np.array([_rep(family, r) for r in rows], dtype=np.int64),
    )


def family_grid(max_rep_dim: int, piece: int = 4096) -> Iterator[FamilyGrid]:
    """The one enumeration of the catalog: the grid of each family in
    ``FAMILIES`` order, with family I (about max_rep_dim^2 / 4 cases) cut
    into pieces of about ``piece`` cases (whole values of n), so that a
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
            n_hi = min(max_rep_dim, max(n, math.isqrt(n * n + 4 * piece)))
            yield _family_i(n, n_hi)
            n = n_hi + 1


def iter_cases(max_rep_dim: int) -> Iterator[dict]:
    """The JSON-ready record of every catalog case with rep_dim <=
    max_rep_dim, in deterministic order (family order as in the module
    docstring, then ascending parameters), read from :func:`family_grid` a
    piece at a time, so memory stays flat and no label is built per case.
    The export reads its records here, not from the grid itself, so that
    perfbench's tracer, which wraps this function, counts the cases of
    every export.
    """
    for grid in family_grid(max_rep_dim):
        family = grid.family
        names = _PARAM_NAMES[family]
        for params, hss, rep in zip(
            grid.params.tolist(), grid.hss_dim.tolist(), grid.rep_dim.tolist()
        ):
            yield {
                "case": family,
                "params": dict(zip(names, params)),
                "hss_dim": hss,
                "rep_dim": rep,
                "duality": _duality(family, params),
                "min_compact_factors": _min_compact(family, params),
            }


def catalog_json(max_rep_dim: int) -> list[dict]:
    """Catalog rows as JSON-ready records with fixed field names and order:
    case, params, hss_dim, rep_dim, duality, min_compact_factors."""
    return list(iter_cases(max_rep_dim))
