"""Faults that the tests inject into agdim, and the table of one fault per
claim that fails every item of a small range.

A fault takes pytest's ``monkeypatch`` and replaces one module attribute,
its seam, for the rest of the test.  ``EVERY_ITEM`` names, per registered
claim, the seam, the fault and the range (``run_verifier``'s keyword
arguments) under which every item the claim checks fails, or every item of
one of its families where a claim checks several: the listing of each claim
is then as full as it gets.  A kernel change that moves a seam edits its
row here.
"""

from typing import Callable, NamedTuple

import numpy as np

from agdim import efficiency, kernels, pairs, verify


def _raise_helper(helper, at=lambda xs: 1):
    # Raise the value of a chunked kernel's per-half helper by one: at every
    # value, or where ``at`` holds of the helper's first argument, which is
    # g - 1 for ``_max_form`` and n for ``_half_products_of``.  Every genus
    # fails dmax-piecewise (``_max_form``), and every n fails the upper side
    # of f-bounds (``_half_products_of``).  The value is raised in the
    # buffer the helper returns, so the fault allocates no array of a
    # stretch's length.
    def inject(mp):
        real = getattr(kernels, helper)

        def raised(xs, *rest):
            value = real(xs, *rest)
            value += at(xs)
            return value

        mp.setattr(kernels, helper, raised)

    return inject


def _negate_closed_form(mp):
    real = efficiency.closed_form_efficient
    mp.setattr(efficiency, "closed_form_efficient", lambda *args: not real(*args))


def _undominated_family_ii(mp):
    mp.setattr(pairs, "orthogonal_star_pairs", lambda k, r: (np.full_like(k, 10**6), 2 * r * k))


def _huge_rank2(mp):
    real = pairs.division_rank2_pairs

    def fake(s, deltas):
        d, g = real(s, deltas)
        return np.full_like(d, 10**9), g

    mp.setattr(pairs, "division_rank2_pairs", fake)


def _failing_mgct(mp):
    def boom(g):
        raise RuntimeError(f"self-check failed at g={g}")

    mp.setattr(verify, "dmc_mgct", boom)


def _zero_dmax(mp):
    mp.setattr(kernels, "dmax_values", lambda gs: np.zeros_like(gs))


def _best_pair_plus_million(mp):
    real = kernels.best_indec_table
    mp.setattr(kernels, "best_indec_table", lambda g_max: real(g_max) + 10**6)


class Fault(NamedTuple):
    seam: str  # the module attribute the fault replaces, as "module.attr"
    inject: Callable  # takes monkeypatch
    range: dict[str, int]  # run_verifier's keyword arguments


# claim -> the fault under which every item of the range fails
EVERY_ITEM = {
    # dmax is 0 everywhere, so every pair ties: every tie off the stated
    # rule {(1, even g2 >= 16)} is unexpected
    "lemma-dmax": Fault("kernels.dmax_values", _zero_dmax, {"g_max": 4000}),
    # dmax's max form is one too high at every genus
    "dmax-piecewise": Fault("kernels._max_form", _raise_helper("_max_form"), {"g_max": 200_000}),
    # F(n) is one too high at every n
    "f-bounds": Fault("kernels._half_products_of", _raise_helper("_half_products_of"), {"n_max": 200_000}),
    # every multiset of the window is misclassified
    "lemma-N": Fault(
        "efficiency.closed_form_efficient", _negate_closed_form, {"sum_max": 16, "pair_max": 200}
    ),
    # every I_nc2 pair is undominated
    "claim-F": Fault(
        "pairs.division_rank2_pairs", _huge_rank2, {"s_max": 64, "delta_max": 64, "k_max": 8, "n_max": 8}
    ),
    # no genus attains dmax: every genus is over it, and every stated
    # equality genus is missing
    "prop-estimate": Fault("kernels.best_indec_table", _best_pair_plus_million, {"g_max": 65536}),
    # every family II cell has no same-k dominating unitary pair
    "remark-domination": Fault(
        "pairs.orthogonal_star_pairs", _undominated_family_ii, {"r_max": 64, "k_max": 64}
    ),
    # every genus of the boundary recursion raises
    "cor-C": Fault("verify.dmc_mgct", _failing_mgct, {}),
    # dmax is 0 everywhere, so every case is over the bound at every k
    "cor-decoupled": Fault("kernels.dmax_values", _zero_dmax, {"rep_max": 256, "k_max": 6}),
}
