"""Top-level dimension functions for the moduli spaces.

``dmc_ag`` evaluates the product recursion

    dmc(g) = max( M(g), max_{0 <= g' < g} (g - g' - 1 + M(g')) )
           = max( M(g), g - 1 + max_{0 <= g' < g} (M(g') - g') )

over the superadditive closure M = mdsp_star_table and checks dmc against
the closed form; the recursion is the computation, the closed form is the
self-check, and a mismatch is an internal error, never silently patched.
One table holds dmc, written over M in place; building it costs at most 60
bytes per genus (``dmc_ag_peak_bytes``), the figure ``explain`` is admitted by.

``dmc_mgct`` runs the boundary recursion for curves of compact type, exact
for 2 <= g <= 23 and explicit bounds beyond, plus the Jacobian-locus and
moduli-of-curves bounds.  The two summary tables are data: one record per
row (key, label, provenance, a function from g to its cell), which
``assemble_tables`` evaluates at each table's genera.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Union

from .arith import GenusValue, Pair, dmax, keel_sadun_bound
from .pairs import a1_pair, mdsp_star_table, unitary_pair
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
    "dmc_ag_peak_bytes",
    "maxvar_case",
    "dmc_mgct",
    "mgct_interior_bound_holds",
    "jacobian_bounds",
    "mg_bounds",
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

    def to_jsonable(self) -> dict:
        return {"type": type(self).__name__, "dim": self.dimension}


@dataclass(frozen=True)
class SpecialFamily:
    """A compact special subvariety from one pair family: the quaternionic
    curve (family A1) or a unitary family member (family I).  Its dimension
    and genus are the family's (d, g) pair, ``pairs.a1_pair()`` or
    ``pairs.unitary_pair(k, n)``."""

    family: str
    k: int | None = None
    n: int | None = None

    @classmethod
    def quaternionic_curve(cls) -> "SpecialFamily":
        return cls("A1")

    @classmethod
    def unitary(cls, k: int, n: int) -> "SpecialFamily":
        return cls("I", k, n)

    def _pair(self) -> Pair:
        return a1_pair() if self.family == "A1" else unitary_pair(self.k, self.n)

    @property
    def dimension(self) -> int:
        return self._pair().d

    @property
    def genus(self) -> int:
        return self._pair().g

    def __str__(self) -> str:
        if self.family == "A1":
            return "SpecialFamily(A1)"
        return f"SpecialFamily(k={self.k}, n={self.n})"

    def to_jsonable(self) -> dict:
        return {"type": type(self).__name__, "dim": self.dimension, **asdict(self)}


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

    def to_jsonable(self) -> dict:
        inner = self.inner.to_jsonable()
        return {"type": type(self).__name__, "dim": self.dimension, "inner": inner}


Attainment = Union[HodgeGeneric, SpecialFamily, ProductWithPoint]


@dataclass(frozen=True)
class AgResult:
    g: int
    dmc: int
    attained_by: tuple[Attainment, ...]
    case: str  # a key of _CASES: "o", "i", "ii", "iii", "iv" or "v"
    narrative: str


# One table of dmc serves every genus below its length; it is rebuilt, at
# least twice as long, when a query outgrows it.
_DMC: tuple[int, ...] = ()


def dmc_ag_peak_bytes(g: int) -> int:
    """Peak memory of ``dmc_ag(g)`` in a fresh process, which builds the
    table up to g: per genus, M's list slot (9 with growth) and int (32;
    every value is below 2^60 up to ``kernels.MAX_SAFE_G``) beside bi's
    int64 or the tuple's slot (8), 49 in all; measured 47-50 at 2e3 to 4e5."""
    return 60 * g


def _table(g_max: int) -> tuple[int, ...]:
    global _DMC
    if len(_DMC) <= g_max:
        g_top = max(g_max, 2 * len(_DMC))
        _DMC = ()  # the old table is freed before the longer one is built
        dmc, p = mdsp_star_table(g_top), 0  # M, overwritten in place by dmc
        for g, m in enumerate(dmc):  # p = max_{g' < g} (M[g'] - g'), 0 at g = 0
            dmc[g], p = max(m, g - 1 + p), max(p, m - g)
        _DMC = tuple(dmc)
    return _DMC


def maxvar_case(g: int) -> str:
    """The key of ``_CASES`` whose record describes the maximal-dimensional
    compact subvarieties in genus g."""
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


class _Case(NamedTuple):
    narrative: str
    attained_by: Callable[[int], tuple[Attainment, ...]]


# The paper's classification of the maximal-dimensional compact subvarieties:
# one record per case of maxvar_case, in its order, with what the case says
# and, for a genus g in it, the descriptors of everything that attains dmc(g).
# Each descriptor renders itself (__str__ for text, to_jsonable for json).
_CASES = {
    "o": _Case(
        "the moduli space carries only points as compact subvarieties",
        lambda g: (HodgeGeneric(g),),
    ),
    "i": _Case(
        "maximal compact subvarieties are Hodge-generic curves or "
        "quaternionic Shimura curves (two distinct constructions)",
        lambda g: (HodgeGeneric(2), SpecialFamily.quaternionic_curve()),
    ),
    "ii": _Case(
        "all maximal-dimensional compact subvarieties are Hodge-generic, "
        "e.g. components of very general complete intersections",
        lambda g: (HodgeGeneric(g),),
    ),
    "iii": _Case(
        "all maximal-dimensional compact subvarieties are unitary-family special subvarieties",
        lambda g: (SpecialFamily.unitary(2, g // 2),),
    ),
    "iv": _Case(
        "all maximal-dimensional compact subvarieties are products of a point with a maximal "
        "special subvariety one genus down, up to Hecke translation",
        lambda g: (ProductWithPoint(SpecialFamily.unitary(2, (g - 1) // 2)),),
    ),
    "v": _Case(
        "maximal compact subvarieties are Hodge-generic or point-times-"
        "special products (two distinct constructions)",
        lambda g: (HodgeGeneric(17), ProductWithPoint(SpecialFamily.unitary(2, 8))),
    ),
}


def _build_result(g: int, table: tuple[int, ...]) -> AgResult:
    value = table[g]
    if g >= 1 and value != dmax(g):
        raise RuntimeError(
            "internal self-check failed: the product recursion returned "
            f"{value} for g={g} but the closed form gives {dmax(g)}"
        )
    case = maxvar_case(g)
    attained = _CASES[case].attained_by(g)
    for descriptor in attained:
        if descriptor.dimension != value:
            raise RuntimeError(
                f"attainment descriptor {descriptor} re-evaluates to "
                f"{descriptor.dimension}, not dmc={value}, at g={g}"
            )
        if descriptor.genus != g:
            raise RuntimeError(
                f"attainment descriptor {descriptor} has genus {descriptor.genus}, not g={g}"
            )
    return AgResult(g, value, attained, case, _CASES[case].narrative)


def dmc_ag(g: int) -> AgResult:
    """Maximal dimension of a compact subvariety in genus g, computed through
    the product recursion (never by shortcut to the closed form) together
    with the descriptors of everything that attains it."""
    if g < 0:
        raise ValueError(f"g must be >= 0 (got {g})")
    return _build_result(g, _table(g))


def dmc_ag_range(g_max: int) -> list[AgResult]:
    """dmc_ag for every 0 <= g <= g_max, sharing one DP table."""
    if g_max < 0:
        raise ValueError(f"g_max must be >= 0 (got {g_max})")
    table = _table(g_max)
    return [_build_result(g, table) for g in range(g_max + 1)]


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


def _mgct_recursion_table() -> tuple[int, ...]:
    """Boundary recursion R for compact-type curves, 2 <= g <= 23, with R(g)
    at index g - 2: R(2) = 1, R(3) = 2, and for g >= 4

        R(g) = max(interior, max_{g'+g''=g, g',g''>=1} pointed(g') + pointed(g''))

    with pointed(1) = 0 (the pointed genus-one space carries no
    positive-dimensional compact subvariety), pointed(k) = 1 + R(k) for
    k >= 2 (pointed fibers are compact curves), and interior = dmax(g)
    included only while dmax(g) < floor(3g/2) - 2.
    """
    R: dict[int, int] = {2: 1, 3: 2}

    def pointed(k: int) -> int:
        return 0 if k == 1 else 1 + R[k]

    for g in range(4, _MGCT_EXACT_MAX + 1):
        boundary = max(pointed(gp) + pointed(g - gp) for gp in range(1, g))
        if mgct_interior_bound_holds(g):
            R[g] = max(dmax(g), boundary)
        else:  # pragma: no cover - never reached for g <= 23
            R[g] = boundary
    return tuple(R[g] for g in range(2, _MGCT_EXACT_MAX + 1))


_MGCT_TABLE = _mgct_recursion_table()


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
        value = _MGCT_TABLE[g - 2]
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


# Each bound of jacobian_bounds and mg_bounds is its own function of g >= 2,
# so that a summary-table row evaluates only its own bound.


def _jacobian_lower(g: int) -> int:
    return (2 * g) // 3


def _jacobian_upper(g: int) -> int:
    mgct = dmc_mgct(g)
    return min(dmax(g), mgct.exact if mgct.exact is not None else 2 * g - 4)


def _mg_lower(g: int) -> int:
    return 0 if g == 2 else max(1, g.bit_length() - 2)


def _mg_upper(g: int) -> int:
    return g - 2


def jacobian_bounds(g: int) -> tuple[int, int]:
    """Bounds for dmc of the Jacobian locus of compact-type curves:
    floor(2g/3) from the boundary construction, and from above the smaller of
    the ambient-moduli value and the compact-type bound (g - 1 for
    2 <= g <= 15)."""
    if g < 2:
        raise ValueError(f"g must be >= 2 (got {g})")
    return _jacobian_lower(g), _jacobian_upper(g)


def mg_bounds(g: int) -> tuple[int, int]:
    """Bounds for dmc of the genus-g moduli of smooth curves: covering
    constructions give a compact d-fold whenever 2^(d+1) <= g (plus a compact
    curve from genus 3 on), and g - 2 from above (Diaz); genus 2 is affine."""
    if g < 2:
        raise ValueError(f"g must be >= 2 (got {g})")
    return _mg_lower(g), _mg_upper(g)


# ---------------------------------------------------------------------------
# assembled tables
# ---------------------------------------------------------------------------


class _Row(NamedTuple):
    key: str
    label: str
    provenance: str
    cell: Callable[[int], GenusValue]


def _cells(kind: str) -> Callable[[Callable[[int], int]], Callable[[int], GenusValue]]:
    """Make a row's cell function from a function of g to its value, for a
    row whose every cell has the bound kind ``kind``."""
    return lambda value: lambda g: GenusValue(g, value(g), kind)


_exact, _lower, _upper = _cells("exact"), _cells("lower-bound"), _cells("upper-bound")

# One record per summary-table row, in display order.  A cell function looks
# dmc_ag and dmc_mgct up when it runs, never holding them: perfbench's tracer
# replaces those module attributes.
_AG_ROWS = (
    _Row("dmcg_ag", "dmcg(A_g) =",
         "closed form g-1, sharp for Hodge-generic subvarieties",
         _exact(lambda g: g - 1)),
    _Row("dmc_ag", "dmc(A_g) =",
         "product recursion over the special-family DP, "
         "self-checked against max(g-1, floor(floor(g/2)^2/4))",
         _exact(lambda g: dmc_ag(g).dmc)),
    _Row("keel_sadun", "dmc(A_g) <= (Keel-Sadun)",
         "closed form g(g-1)/2 - 1",
         _upper(keel_sadun_bound)),
)
_MG_ROWS = (
    _Row("dmcg_mgct", "dmcg(M_g^ct) >=",
         "boundary codimension 3 in the Satake closure",
         _lower(lambda g: 2)),
    _Row("dmc_mgct", "dmc(M_g^ct)",
         "boundary recursion, exact to genus 23; "
         "construction lower bound floor(3g/2)-2 beyond",
         lambda g: dmc_mgct(g).as_genus_value()),  # exact or lower-bound, by genus
    _Row("jac_upper", "dmc(J(M_g^ct)) <=",
         "min of the ambient bound dmax(g) and the "
         "compact-type bound (floor(3g/2)-2 for g <= 23, else 2g-4)",
         _upper(_jacobian_upper)),
    _Row("jac_lower", "dmc(J(M_g^ct)) >=",
         "closed form floor(2g/3) from boundary products",
         _lower(_jacobian_lower)),
    _Row("dmcg_mg", "dmcg(M_g) >=",
         "boundary codimension 2 in the Satake closure",
         _lower(lambda g: 1)),
    _Row("mg_lower", "dmc(M_g) >= (covers)",
         "covering constructions: a compact d-fold exists whenever 2^(d+1) <= g",
         _lower(_mg_lower)),
    _Row("mg_upper", "dmc(M_g) <= (Diaz)",
         "closed form g-2",
         _upper(_mg_upper)),
)
# Appended to the M_g table only on request; no fixture checks them.
_MG_CONJECTURAL = (
    _Row("dmc_mgct_conjectural", "dmc(M_g^ct) = (CONJECTURAL)",
         "consequence of the conjectured bound "
         "dmc(J(M_g^ct)) <= g-1 for all g; unproven for g >= 24",
         _exact(_mgct_closed_form)),
    _Row("jac_upper_conjectural", "dmc(J(M_g^ct)) <= (CONJECTURAL)",
         "the conjectured bound g-1 itself",
         _upper(lambda g: g - 1)),
)

# name -> (title, genera, rows, conjectural rows)
_SUMMARY = {
    "ag": ("Maximal dimensions of compact subvarieties of A_g", AG_TABLE_GENERA, _AG_ROWS, ()),
    "mg": ("Known dimensions of compact subvarieties of M_g^ct and M_g", MG_TABLE_GENERA,
           _MG_ROWS, _MG_CONJECTURAL),
}


def assemble_tables(conjectural: bool = False) -> dict[str, DimensionTable]:
    """Both summary tables keyed by name, each row's cells evaluated at the
    table's genera; with ``conjectural=True`` the compact-type table gains
    clearly labeled conjectural rows (excluded from fixture checks)."""
    tables = {}
    for name, (title, genera, rows, extra) in _SUMMARY.items():
        rows += extra if conjectural else ()
        built = (TableRow(r.key, r.label, r.provenance, tuple(map(r.cell, genera))) for r in rows)
        tables[name] = DimensionTable(name, title, genera, tuple(built))
    return tables
