"""Every public entry point refuses an argument below its domain with its
exact message, rather than computing from it."""

import pytest

from agdim import kernels, moduli, pairs, verify
from agdim.efficiency import verify_efficiency_classification

CLAIMS = sorted(verify.REGISTRY)

CHECKS = [
    (pairs.unitary_pair, (2, 1), ValueError, "unitary family requires n >= 2 (got n=1)"),
    (pairs.orthogonal_star_pair, (1, 4), ValueError, "family II requires k >= 2 (got k=1)"),
    (pairs.quaternion_symplectic_pair, (1, 2), ValueError, "family III requires k >= 2 (got k=1)"),
    (pairs.division_rank1_pair, (1, 1), ValueError, "family I_nc1 requires delta >= 2 (got delta=1)"),
    (pairs.division_rank2_pair, (0, 2), ValueError, "family I_nc2 requires s >= 1 (got s=0)"),
    (pairs.division_rank2_pair, (1, 1), ValueError, "family I_nc2 requires delta >= 2 (got delta=1)"),
    (pairs.best_indecomposable, (0,), ValueError, "g must be >= 1 (got 0)"),
    (pairs.mdsp_star_table, (-1,), ValueError, "g_max must be >= 0 (got -1)"),
    (pairs.verify_remark_domination, (64, 1), ValueError, "all range bounds must be >= 2"),
    (kernels.best_indec_table, (-1,), ValueError, "g_max must be >= 0 (got -1)"),
    (moduli.maxvar_case, (-1,), ValueError, "g must be >= 0 (got -1)"),
    (moduli.dmc_ag_range, (-1,), ValueError, "g_max must be >= 0 (got -1)"),
    (moduli.mgct_interior_bound_holds, (1,), ValueError, "g must be >= 2 (got 1)"),
    (moduli.jacobian_bounds, (1,), ValueError, "g must be >= 2 (got 1)"),
    (moduli.mg_bounds, (1,), ValueError, "g must be >= 2 (got 1)"),
    (verify_efficiency_classification, (1,), ValueError, "sum_max must be >= 2 (got 1)"),
    (verify.range_args, ("bogus",), KeyError, f"unknown claim id 'bogus' (known: {CLAIMS})"),
]


@pytest.mark.parametrize(
    "fn, args, error, message", CHECKS, ids=[f"{fn.__name__}{args}" for fn, args, _, _ in CHECKS]
)
def test_refuses_below_domain(fn, args, error, message):
    with pytest.raises(error) as info:
        fn(*args)
    assert info.value.args == (message,)
