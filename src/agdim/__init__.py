"""agdim: exact integer arithmetic for maximal compact subvarieties of the
moduli of principally polarized abelian varieties.

Public surface:

* :mod:`agdim.arith` -- the genus bound ``dmax``, half-product, pair order;
* :mod:`agdim.satake` -- the classification catalog;
* :mod:`agdim.pairs` -- pair families, their domination checks, superadditive DP;
* :mod:`agdim.efficiency` -- multiset product/sum classification;
* :mod:`agdim.moduli` -- the top-level dimension recursions and tables;
* :mod:`agdim.verify` -- exhaustive claim verifiers (also via the CLI);
* :mod:`agdim.kernels` -- numpy int64 bulk kernels behind the verifiers.
"""

from .arith import (
    GenusValue,
    Pair,
    dmax,
    dominates,
    half_product,
    is_negligible,
    keel_sadun_bound,
    strictly_dominates,
)
from .moduli import (
    AgResult,
    MgctResult,
    agind_bounds,
    assemble_tables,
    dmc_ag,
    dmc_mgct,
    jacobian_bounds,
    mg_bounds,
)
from .pairs import best_indecomposable, mdsp_star

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Pair",
    "GenusValue",
    "dmax",
    "half_product",
    "dominates",
    "strictly_dominates",
    "is_negligible",
    "keel_sadun_bound",
    "best_indecomposable",
    "mdsp_star",
    "AgResult",
    "MgctResult",
    "dmc_ag",
    "dmc_mgct",
    "jacobian_bounds",
    "mg_bounds",
    "agind_bounds",
    "assemble_tables",
]
