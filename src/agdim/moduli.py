"""Top-level dimension functions for the moduli spaces.

``dmc_ag`` evaluates the product recursion

    dmc(g) = max( M(g), max_{0 <= g' < g} (g - g' - 1 + M(g')) )

over the superadditive closure M = mdsp_star and checks the result against
the closed form; the recursion is the computation, the closed form is the
self-check, and a mismatch is an internal error, never silently patched.

``dmc_mgct`` runs the boundary recursion for curves of compact type, exact
for 2 <= g <= 23 and explicit bounds beyond, plus the Jacobian-locus and
moduli-of-curves bounds and the assembled summary tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .arith import GenusValue, dmax, half_product, keel_sadun_bound
from .pairs import mdsp_star_table
from .tables import DimensionTable, TableRow

__all__ = [
    "HodgeGeneric",
    "SpecialFamily",
    "ProductWithPoint",
    "Attainment",
    "AgResult",
    "MgctResult",
    "dmc_ag",
    "dmc_ag_range",
    "maxvar_case",
    "dmc_mgct",
    "mgct_interior_bound_holds",
    "jacobian_bounds",
    "mg_bounds",
    "agind_bounds",
    "assemble_tables",
    "AG_TABLE_GENERA",
    "MG_TABLE_GENERA",
]

AG_TABLE_GENERA = (3, 4, 5, 6, 15, 16, 17, 18, 100)
MG_TABLE_GENERA = (3, 4, 5, 6, 15, 16, 17, 18, 23, 24, 100)


@dataclass(frozen=True)
class HodgeGeneric:
    """A compact subvariety through a very general point, e.g. a component of
    a very general complete intersection; dimension g - 1 (a point for
    g <= 1, where the moduli space carries nothing larger)."""

    genus: int

    @property
    def dimension(self) -> int:
        return max(self.genus - 1, 0)

    def __str__(self) -> str:
        return f"HodgeGeneric(dim={self.dimension})"


@dataclass(frozen=True)
class SpecialFamily:
    """A compact special subvariety from one pair family: the quaternionic
    curve (family A1, the pair (1, 2)) or a unitary family member
    (family I, dimension (k-1) F(n) in genus k n)."""

    family: str
    k: int | None = None
    n: int | None = None

    @classmethod
    def quaternionic_curve(cls) -> "SpecialFamily":
        return cls("A1")

    @classmethod
    def unitary(cls, k: int, n: int) -> "SpecialFamily":
        return cls("I", k, n)

    @property
    def dimension(self) -> int:
        if self.family == "A1":
            return 1
        assert self.k is not None and self.n is not None
        return (self.k - 1) * half_product(self.n)

    @property
    def genus(self) -> int:
        if self.family == "A1":
            return 2
        assert self.k is not None and self.n is not None
        return self.k * self.n

    def __str__(self) -> str:
        if self.family == "A1":
            return "SpecialFamily(A1)"
        return f"SpecialFamily(k={self.k}, n={self.n})"


@dataclass(frozen=True)
class ProductWithPoint:
    """Product of a one-dimensional-moduli point with a compact special
    subvariety one genus down (or a Hecke translate of such a product)."""

    inner: SpecialFamily

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    @property
    def genus(self) -> int:
        return self.inner.genus + 1

    def __str__(self) -> str:
        return f"ProductWithPoint({self.inner})"


Attainment = Union[HodgeGeneric, SpecialFamily, ProductWithPoint]


@dataclass(frozen=True)
class AgResult:
    g: int
    dmc: int
    attained_by: tuple[Attainment, ...]
    case: str  # one of "o", "i", "ii", "iii", "iv", "v"


# M[g] depends only on bi[g] and on M at smaller genera, so one table serves
# every genus up to its length; it is rebuilt at least twice as long when a
# query outgrows it.
_MDSP_TABLE: tuple[int, ...] = ()


def _mdsp(g_max: int) -> tuple[int, ...]:
    global _MDSP_TABLE
    M = _MDSP_TABLE
    if len(M) <= g_max:
        M = _MDSP_TABLE = tuple(mdsp_star_table(max(g_max, 2 * len(M))))
    return M


def _recursion_value(g: int, M: tuple[int, ...]) -> int:
    best = M[g]
    for g_prime in range(0, g):
        best = max(best, g - g_prime - 1 + M[g_prime])
    return best


def maxvar_case(g: int) -> str:
    """Which description applies to the maximal-dimensional compact
    subvarieties in genus g: (o) a point, (i) generic curves or quaternionic
    Shimura curves, (ii) generic only, (iii) a unitary special family,
    (iv) point-times-family products, (v) generic or such a product."""
    if g < 0:
        raise ValueError(f"g must be >= 0 (got {g})")
    if g <= 1:
        return "o"
    if g == 2:
        return "i"
    if g <= 15:
        return "ii"
    if g % 2 == 0:
        return "iii"
    if g == 17:
        return "v"
    return "iv"


def _attainments(g: int) -> tuple[Attainment, ...]:
    case = maxvar_case(g)
    if case == "o":
        return (HodgeGeneric(g),)
    if case == "i":
        return (HodgeGeneric(2), SpecialFamily.quaternionic_curve())
    if case == "ii":
        return (HodgeGeneric(g),)
    if case == "iii":
        return (SpecialFamily.unitary(2, g // 2),)
    if case == "v":
        return (HodgeGeneric(17), ProductWithPoint(SpecialFamily.unitary(2, 8)))
    return (ProductWithPoint(SpecialFamily.unitary(2, (g - 1) // 2)),)


def _build_result(g: int, M: tuple[int, ...]) -> AgResult:
    value = _recursion_value(g, M)
    if g >= 1 and value != dmax(g):
        raise RuntimeError(
            "internal self-check failed: the product recursion returned "
            f"{value} for g={g} but the closed form gives {dmax(g)}"
        )
    attained = _attainments(g)
    for descriptor in attained:
        if descriptor.dimension != value:
            raise RuntimeError(
                f"attainment descriptor {descriptor} re-evaluates to "
                f"{descriptor.dimension}, not dmc={value}, at g={g}"
            )
    return AgResult(g=g, dmc=value, attained_by=attained, case=maxvar_case(g))


def dmc_ag(g: int) -> AgResult:
    """Maximal dimension of a compact subvariety in genus g, computed through
    the product recursion (never by shortcut to the closed form) together
    with the descriptors of everything that attains it."""
    if g < 0:
        raise ValueError(f"g must be >= 0 (got {g})")
    return _build_result(g, _mdsp(g))


def dmc_ag_range(g_max: int) -> list[AgResult]:
    """dmc_ag for every 0 <= g <= g_max, sharing one DP table."""
    if g_max < 0:
        raise ValueError(f"g_max must be >= 0 (got {g_max})")
    M = _mdsp(g_max)
    return [_build_result(g, M) for g in range(g_max + 1)]


# ---------------------------------------------------------------------------
# curves of compact type
# ---------------------------------------------------------------------------

_MGCT_EXACT_MAX = 23


def _mgct_closed_form(g: int) -> int:
    return (3 * g) // 2 - 2


def mgct_interior_bound_holds(g: int) -> bool:
    """True iff dmax(g) < floor(3g/2) - 2, the hypothesis that lets the
    boundary recursion absorb interior subvarieties (holds for 4 <= g <= 23,
    fails from g = 24 on)."""
    if g < 2:
        raise ValueError(f"g must be >= 2 (got {g})")
    return dmax(g) < _mgct_closed_form(g)


@lru_cache(maxsize=None)
def _mgct_recursion_table(g_max: int) -> tuple[int, ...]:
    """Boundary recursion R for compact-type curves, 2 <= g <= g_max <= 23:
    R(2) = 1, R(3) = 2, and for g >= 4

        R(g) = max(interior, max_{g'+g''=g, g',g''>=1} pointed(g') + pointed(g''))

    with pointed(1) = 0 (the pointed genus-one space carries no
    positive-dimensional compact subvariety), pointed(k) = 1 + R(k) for
    k >= 2 (pointed fibers are compact curves), and interior = dmax(g)
    included only while dmax(g) < floor(3g/2) - 2.
    """
    if not 2 <= g_max <= _MGCT_EXACT_MAX:
        raise ValueError(f"recursion table covers 2 <= g_max <= 23 (got {g_max})")
    R: dict[int, int] = {2: 1, 3: 2}

    def pointed(k: int) -> int:
        return 0 if k == 1 else 1 + R[k]

    for g in range(4, g_max + 1):
        boundary = max(pointed(gp) + pointed(g - gp) for gp in range(1, g))
        if mgct_interior_bound_holds(g):
            R[g] = max(dmax(g), boundary)
        else:  # pragma: no cover - never reached for g <= 23
            R[g] = boundary
    return tuple(R[g] for g in range(2, g_max + 1))


@dataclass(frozen=True)
class MgctResult:
    """dmc for the compact-type moduli space: exact through genus 23, an
    open question beyond (bounds only, flagged)."""

    g: int
    lower: int
    upper: int
    exact: int | None
    open_question: bool

    def as_genus_value(self) -> GenusValue:
        if self.exact is not None:
            return GenusValue(self.g, self.exact, "exact")
        return GenusValue(self.g, self.lower, "lower-bound")


def dmc_mgct(g: int) -> MgctResult:
    """dmc of the genus-g compact-type moduli space.

    For 2 <= g <= 23 the boundary recursion is evaluated and checked against
    the closed form floor(3g/2) - 2.  For g >= 24 only bounds are returned:
    the boundary construction from below, and from above min(2g - 4, and for
    g <= 28 the sharper floor(floor(g/2)^2/4)).
    """
    if g < 2:
        raise ValueError(f"g must be >= 2 (got {g})")
    closed = _mgct_closed_form(g)
    if g <= _MGCT_EXACT_MAX:
        value = _mgct_recursion_table(g)[g - 2]
        if value != closed:
            raise RuntimeError(
                "internal self-check failed: the boundary recursion returned "
                f"{value} for g={g} but the closed form gives {closed}"
            )
        return MgctResult(g=g, lower=value, upper=value, exact=value, open_question=False)
    upper = 2 * g - 4
    if g <= 28:
        half = g // 2
        upper = min(upper, (half * half) // 4)
    return MgctResult(g=g, lower=closed, upper=upper, exact=None, open_question=True)


def jacobian_bounds(g: int) -> tuple[int, int]:
    """Bounds for dmc of the Jacobian locus of compact-type curves:
    floor(2g/3) from the boundary construction, and from above the smaller of
    the ambient-moduli value and the compact-type bound (g - 1 for
    2 <= g <= 15)."""
    if g < 2:
        raise ValueError(f"g must be >= 2 (got {g})")
    lower = (2 * g) // 3
    mgct = dmc_mgct(g)
    upper = min(dmax(g), mgct.exact if mgct.exact is not None else 2 * g - 4)
    return lower, upper


def mg_bounds(g: int) -> tuple[int, int]:
    """Bounds for dmc of the genus-g moduli of smooth curves: covering
    constructions give a compact d-fold whenever 2^(d+1) <= g (plus a compact
    curve from genus 3 on), and g - 2 from above (Diaz); genus 2 is affine."""
    if g < 2:
        raise ValueError(f"g must be >= 2 (got {g})")
    if g == 2:
        return 0, 0
    lower = max(1, g.bit_length() - 2)
    return lower, g - 2


def agind_bounds(g: int) -> tuple[int, int, int | None]:
    """(lower, upper, exact-if-known) for the very-general compact dimension
    of the indecomposable locus: g - 2 <= value <= g - 1, with equality
    value = g - 2 known for g in {2, 3, 4}."""
    if g < 2:
        raise ValueError(f"g must be >= 2 (got {g})")
    exact = g - 2 if g in (2, 3, 4) else None
    return g - 2, g - 1, exact


# ---------------------------------------------------------------------------
# assembled tables
# ---------------------------------------------------------------------------


def _ag_table() -> DimensionTable:
    genera = AG_TABLE_GENERA
    results = {g: dmc_ag(g) for g in genera}
    rows = (
        TableRow(
            key="dmcg_ag",
            label="dmcg(A_g) =",
            provenance="closed form g-1, sharp for Hodge-generic subvarieties",
            cells=tuple(GenusValue(g, g - 1, "exact") for g in genera),
        ),
        TableRow(
            key="dmc_ag",
            label="dmc(A_g) =",
            provenance="product recursion over the special-family DP, "
            "self-checked against max(g-1, floor(floor(g/2)^2/4))",
            cells=tuple(GenusValue(g, results[g].dmc, "exact") for g in genera),
        ),
        TableRow(
            key="keel_sadun",
            label="dmc(A_g) <= (Keel-Sadun)",
            provenance="closed form g(g-1)/2 - 1",
            cells=tuple(GenusValue(g, keel_sadun_bound(g), "upper-bound") for g in genera),
        ),
    )
    return DimensionTable(
        name="ag",
        title="Maximal dimensions of compact subvarieties of A_g",
        genera=genera,
        rows=rows,
    )


def _mg_table(conjectural: bool = False) -> DimensionTable:
    genera = MG_TABLE_GENERA
    mgct = {g: dmc_mgct(g) for g in genera}
    jac = {g: jacobian_bounds(g) for g in genera}
    mg = {g: mg_bounds(g) for g in genera}
    rows = [
        TableRow(
            key="dmcg_mgct",
            label="dmcg(M_g^ct) >=",
            provenance="boundary codimension 3 in the Satake closure",
            cells=tuple(GenusValue(g, 2, "lower-bound") for g in genera),
        ),
        TableRow(
            key="dmc_mgct",
            label="dmc(M_g^ct)",
            provenance="boundary recursion, exact to genus 23; "
            "construction lower bound floor(3g/2)-2 beyond",
            cells=tuple(mgct[g].as_genus_value() for g in genera),
        ),
        TableRow(
            key="jac_upper",
            label="dmc(J(M_g^ct)) <=",
            provenance="min of the ambient bound dmax(g) and the "
            "compact-type bound (floor(3g/2)-2 for g <= 23, else 2g-4)",
            cells=tuple(GenusValue(g, jac[g][1], "upper-bound") for g in genera),
        ),
        TableRow(
            key="jac_lower",
            label="dmc(J(M_g^ct)) >=",
            provenance="closed form floor(2g/3) from boundary products",
            cells=tuple(GenusValue(g, jac[g][0], "lower-bound") for g in genera),
        ),
        TableRow(
            key="dmcg_mg",
            label="dmcg(M_g) >=",
            provenance="boundary codimension 2 in the Satake closure",
            cells=tuple(GenusValue(g, 1, "lower-bound") for g in genera),
        ),
        TableRow(
            key="mg_lower",
            label="dmc(M_g) >= (covers)",
            provenance="covering constructions: a compact d-fold exists "
            "whenever 2^(d+1) <= g",
            cells=tuple(GenusValue(g, mg[g][0], "lower-bound") for g in genera),
        ),
        TableRow(
            key="mg_upper",
            label="dmc(M_g) <= (Diaz)",
            provenance="closed form g-2",
            cells=tuple(GenusValue(g, mg[g][1], "upper-bound") for g in genera),
        ),
    ]
    if conjectural:
        rows.append(
            TableRow(
                key="dmc_mgct_conjectural",
                label="dmc(M_g^ct) = (CONJECTURAL)",
                provenance="consequence of the conjectured bound "
                "dmc(J(M_g^ct)) <= g-1 for all g; unproven for g >= 24",
                cells=tuple(
                    GenusValue(g, _mgct_closed_form(g), "exact") for g in genera
                ),
            )
        )
        rows.append(
            TableRow(
                key="jac_upper_conjectural",
                label="dmc(J(M_g^ct)) <= (CONJECTURAL)",
                provenance="the conjectured bound g-1 itself",
                cells=tuple(GenusValue(g, g - 1, "upper-bound") for g in genera),
            )
        )
    return DimensionTable(
        name="mg",
        title="Known dimensions of compact subvarieties of M_g^ct and M_g",
        genera=genera,
        rows=tuple(rows),
    )


def assemble_tables(conjectural: bool = False) -> dict[str, DimensionTable]:
    """Both summary tables keyed by name; with ``conjectural=True`` the
    compact-type table gains clearly labeled conjectural rows (excluded from
    fixture checks)."""
    return {"ag": _ag_table(), "mg": _mg_table(conjectural=conjectural)}
