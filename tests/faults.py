"""Faults that the tests inject into agdim, the table of the two chunked
kernels, and the table of one fault per claim that fails every item of a
small range.

A fault takes pytest's ``monkeypatch`` and replaces module attributes, its
``seams`` (each "module.attr"), for the rest of the test.  A fault on an
array constructor of ``agdim.pairs`` also replaces its scalar twin, the
constructor of one pair that the Python-int oracles of the tests read, by
the faulted array form at one cell.  ``EVERY_ITEM`` names, per registered
claim, the fault and the range (``run_verifier``'s keyword arguments) under
which every item the claim checks fails, or every item of one of its
families where a claim checks several: the listing of each claim is then as
full as it gets.  A kernel change that moves a seam edits its fault here.
"""

from typing import Callable, NamedTuple

import numpy as np

from agdim import efficiency, kernels, pairs, verify
from agdim.arith import Pair, dmax, dmax_piecewise, half_product


def _seams(*seams):
    def declare(inject):
        inject.seams = seams
        return inject

    return declare


class Chunked(NamedTuple):
    flag: str  # the claim's range flag
    kernel: str  # its chunked kernel, in kernels
    helper: str  # the kernel's per-half helper, the seam of its faults
    shift: int  # what the helper's first argument adds to reach the value checked
    # whether the Python-int scalars report value v when bump is added to
    # the helper's value at v
    reported: Callable[[int, int], bool]


# claim -> its chunked kernel
CHUNKED = {
    "dmax-piecewise": Chunked(
        "--g-max", "piecewise_mismatches", "_max_form", 1, lambda g, bump: dmax(g) + bump != dmax_piecewise(g)
    ),
    "f-bounds": Chunked(
        "--n-max",
        "f_bound_violations",
        "_half_products_of",
        0,
        lambda n, bump: not n * n - 1 <= 4 * (half_product(n) + bump) <= n * n,
    ),
}


def _raise_helper(claim, at=None):
    # Raise the value of the claim's chunked kernel's per-half helper by
    # at(v) at each value v checked, or by one at every value, so that
    # every genus fails dmax-piecewise and every n the upper side of
    # f-bounds.  The value is raised in the buffer the helper returns, so
    # the fault by one allocates no array of a stretch's length.
    helper, shift = CHUNKED[claim].helper, CHUNKED[claim].shift

    @_seams(f"kernels.{helper}")
    def inject(mp):
        real = getattr(kernels, helper)

        def raised(xs, *rest):
            value = real(xs, *rest)
            value += 1 if at is None else at(xs + shift)
            return value

        mp.setattr(kernels, helper, raised)

    return inject


def _set_pairs(mp, name, fake):
    # The array constructor pairs.<name> becomes fake, and its scalar twin,
    # <name> without the final s, fake at one cell.
    mp.setattr(pairs, name, fake)
    mp.setattr(pairs, name[:-1], lambda a, b: Pair(*(int(x[0]) for x in fake(np.array([a]), np.array([b])))))


@_seams("pairs.division_rank1_pairs", "pairs.division_rank1_pair")
def _extra_equality(mp):
    # (s, delta) = (2, 2) becomes (4, 8), equal to its witness unitary_pair(2, 4)
    real = pairs.division_rank1_pairs

    def fake(s, deltas):
        d, g = real(s, deltas)
        at = (deltas == 2) & (s == 2)
        return np.where(at, 4, d), np.where(at, 8, g)

    _set_pairs(mp, "division_rank1_pairs", fake)


@_seams("pairs.division_rank1_pairs", "pairs.division_rank1_pair")
def _tie_every_rank1_cell(mp):
    # every I_nc1 pair equals its designated witness unitary_pair(2, s delta^2 // 2)
    _set_pairs(mp, "division_rank1_pairs", lambda s, delta: pairs.unitary_pairs(2, s * delta**2 // 2))


@_seams("pairs.division_rank2_pairs", "pairs.division_rank2_pair")
def _huge_rank2(mp):
    real = pairs.division_rank2_pairs

    def fake(s, deltas):
        d, g = real(s, deltas)
        return np.full_like(d, 10**9), g

    _set_pairs(mp, "division_rank2_pairs", fake)


@_seams(*_huge_rank2.seams, *_extra_equality.seams)
def _both_claim_f_faults(mp):
    _huge_rank2(mp)
    _extra_equality(mp)


@_seams("pairs.orthogonal_star_pairs", "pairs.orthogonal_star_pair")
def _undominated_family_ii(mp):
    _set_pairs(mp, "orthogonal_star_pairs", lambda k, r: (np.full_like(k, 10**6), 2 * r * k))


@_seams("efficiency.closed_form_efficient")
def _negate_closed_form(mp):
    real = efficiency.closed_form_efficient
    mp.setattr(efficiency, "closed_form_efficient", lambda *args: not real(*args))


@_seams("verify.dmc_mgct")
def _failing_mgct(mp):
    def boom(g):
        raise RuntimeError(f"self-check failed at g={g}")

    mp.setattr(verify, "dmc_mgct", boom)


@_seams("kernels.dmax_values")
def _zero_dmax(mp):
    mp.setattr(kernels, "dmax_values", lambda gs: np.zeros_like(gs))


@_seams("kernels.best_indec_table")
def _best_pair_plus_million(mp):
    real = kernels.best_indec_table
    mp.setattr(kernels, "best_indec_table", lambda g_max: real(g_max) + 10**6)


class Fault(NamedTuple):
    inject: Callable  # takes monkeypatch
    range: dict[str, int]  # run_verifier's keyword arguments


# claim -> the fault under which every item of the range fails
EVERY_ITEM = {
    # dmax is 0 everywhere, so every pair ties: every tie off the stated
    # rule {(1, even g2 >= 16)} is unexpected
    "lemma-dmax": Fault(_zero_dmax, {"g_max": 4000}),
    # dmax's max form is one too high at every genus
    "dmax-piecewise": Fault(_raise_helper("dmax-piecewise"), {"g_max": 200_000}),
    # F(n) is one too high at every n
    "f-bounds": Fault(_raise_helper("f-bounds"), {"n_max": 200_000}),
    # every multiset of the window is misclassified
    "lemma-N": Fault(_negate_closed_form, {"sum_max": 16, "pair_max": 200}),
    # every I_nc2 pair is undominated
    "claim-F": Fault(_huge_rank2, {"s_max": 64, "delta_max": 64, "k_max": 8, "n_max": 8}),
    # no genus attains dmax: every genus is over it, and every stated
    # equality genus is missing
    "prop-estimate": Fault(_best_pair_plus_million, {"g_max": 65536}),
    # every family II cell has no same-k dominating unitary pair
    "remark-domination": Fault(_undominated_family_ii, {"r_max": 64, "k_max": 64}),
    # every genus of the boundary recursion raises
    "cor-C": Fault(_failing_mgct, {}),
    # dmax is 0 everywhere, so every case is over the bound at every k
    "cor-decoupled": Fault(_zero_dmax, {"rep_max": 256, "k_max": 6}),
}
