"""Dimension/genus pair families, the checks that four of them are
dominated, and the superadditive closure used by the moduli recursion.

Six parametric families produce every non-negligible candidate pair:

* ``A1``     -- the quaternionic curve pair (1, 2);
* ``I``      -- unitary families ((k-1) F(n), k n) for k >= 2, n >= 3;
* ``II``     -- ((k-1) r(r-1)/2, 2rk) for k >= 2, r >= 4;
* ``III``    -- ((k-1) r(r+1)/2, 2rk) for k >= 2, r >= 2;
* ``I_nc1``  -- (s F(delta), s delta^2) for s >= 1, delta >= 2, the rank-1
  division-algebra forms whose real factors can all stay non-compact;
* ``I_nc2``  -- (s F(2 delta), 2 s delta^2), the rank-2 such forms.

Families II, III, I_nc1 and I_nc2 are each dominated by an I-family pair
(:func:`verify_remark_domination`, :func:`verify_claim_f`), so only A1 and I
feed :func:`best_indecomposable`.  The dynamic program :func:`mdsp_star_table`
closes the single-family optimum under products; its entry M(g) is a
certified lower bound for the best compact special subvariety of genus g,
exact whenever it reaches g - 1.

Each family has a scalar constructor in Python ints (``unitary_pair``, ...),
which is exact at any size and is the test oracle, and an array form
(``unitary_pairs``, ...) over int64 arrays, which the two domination checks
call once per block of rows of about ``kernels.PAIR_BLOCK`` cells.  Where a
designated witness fails, both checks take the smallest dominating unitary
pair from one closed-form rule (:func:`_smallest_dominating_n`): claim F in
Python ints for each listed failure, remark-domination in one numpy pass
over a failing row's cells (:func:`_row_fallback`).
"""

from __future__ import annotations

from itertools import count, repeat
from math import isqrt

import numpy as np

from . import kernels
from .arith import Pair, half_product
from .report import MAX_LISTED, VerificationReport, equality_diff

__all__ = [
    "FAMILY_I",
    "FAMILY_II",
    "FAMILY_III",
    "FAMILY_I_NC1",
    "FAMILY_I_NC2",
    "a1_pair",
    "unitary_pair",
    "orthogonal_star_pair",
    "quaternion_symplectic_pair",
    "division_rank1_pair",
    "division_rank2_pair",
    "unitary_pairs",
    "orthogonal_star_pairs",
    "quaternion_symplectic_pairs",
    "division_rank1_pairs",
    "division_rank2_pairs",
    "MAX_SAFE_CLAIM_F",
    "MAX_SAFE_REMARK",
    "best_indecomposable",
    "best_indecomposable_table",
    "mdsp_star_table",
    "verify_claim_f",
    "verify_remark_domination",
    "witness_record",
]

FAMILY_I = "I"
FAMILY_II = "II"
FAMILY_III = "III"
FAMILY_I_NC1 = "I_nc1"
FAMILY_I_NC2 = "I_nc2"

# int64-safe bounds on the range parameters of the two domination checks,
# derived in the docstrings of verify_claim_f and verify_remark_domination.
MAX_SAFE_CLAIM_F = 1824  # s_max, delta_max
MAX_SAFE_REMARK = 2**21  # r_max, k_max


def a1_pair() -> Pair:
    return Pair(1, 2)


def unitary_pair(k: int, n: int) -> Pair:
    """((k-1) F(n), k n).  The enumerated family requires n >= 3; n = 2 is
    admitted here because the division-family comparisons use it as a
    degenerate witness."""
    if k < 2:
        raise ValueError(f"unitary family requires k >= 2 (got k={k})")
    if n < 2:
        raise ValueError(f"unitary family requires n >= 2 (got n={n})")
    return Pair((k - 1) * half_product(n), k * n)


def orthogonal_star_pair(k: int, r: int) -> Pair:
    if k < 2:
        raise ValueError(f"family II requires k >= 2 (got k={k})")
    if r < 4:
        raise ValueError(f"family II requires r >= 4 (got r={r})")
    return Pair((k - 1) * (r * (r - 1) // 2), 2 * r * k)


def quaternion_symplectic_pair(k: int, r: int) -> Pair:
    if k < 2:
        raise ValueError(f"family III requires k >= 2 (got k={k})")
    if r < 2:
        raise ValueError(f"family III requires r >= 2 (got r={r})")
    return Pair((k - 1) * (r * (r + 1) // 2), 2 * r * k)


def division_rank1_pair(s: int, delta: int) -> Pair:
    if s < 1:
        raise ValueError(f"family I_nc1 requires s >= 1 (got s={s})")
    if delta < 2:
        raise ValueError(f"family I_nc1 requires delta >= 2 (got delta={delta})")
    return Pair(s * half_product(delta), s * delta * delta)


def division_rank2_pair(s: int, delta: int) -> Pair:
    if s < 1:
        raise ValueError(f"family I_nc2 requires s >= 1 (got s={s})")
    if delta < 2:
        raise ValueError(f"family I_nc2 requires delta >= 2 (got delta={delta})")
    return Pair(s * half_product(2 * delta), 2 * s * delta * delta)


# Array forms of the constructors above for the bulk domination checks: the
# parameters are int64 arrays or ints that broadcast together, the result is
# the (d, g) pair of int64 arrays, and nothing is validated.  The callers
# bound their parameters so that no value passes 2^63 - 1.


def unitary_pairs(k, n) -> tuple[np.ndarray, np.ndarray]:
    return (k - 1) * kernels.half_products(n), k * n


def orthogonal_star_pairs(k, r) -> tuple[np.ndarray, np.ndarray]:
    return (k - 1) * (r * (r - 1) // 2), 2 * r * k


def quaternion_symplectic_pairs(k, r) -> tuple[np.ndarray, np.ndarray]:
    return (k - 1) * (r * (r + 1) // 2), 2 * r * k


def division_rank1_pairs(s, delta) -> tuple[np.ndarray, np.ndarray]:
    return s * kernels.half_products(delta), s * delta * delta


def division_rank2_pairs(s, delta) -> tuple[np.ndarray, np.ndarray]:
    return s * kernels.half_products(2 * delta), 2 * s * delta * delta


def best_indecomposable(g: int) -> int:
    """Best dimension of a single-family pair of genus exactly g, over the
    undominated families (A1 and I); 0 when no such pair exists (every moduli
    space contains special points)."""
    if g < 1:
        raise ValueError(f"g must be >= 1 (got {g})")
    best = 1 if g == 2 else 0
    for k in range(2, g // 3 + 1):
        if g % k == 0:
            n = g // k
            if n >= 3:
                best = max(best, unitary_pair(k, n).d)
    return best


def best_indecomposable_table(g_max: int) -> list[int]:
    """Vectorized table of :func:`best_indecomposable` for 0 <= g <= g_max
    (entries 0 and 1 are 0)."""
    return [int(v) for v in kernels.best_indec_table(g_max)]


def mdsp_star_table(g_max: int) -> list[int]:
    """DP table M with M(0) = 0 and
    M(g) = max(best_indecomposable(g), max_{0 < g' < g} M(g') + M(g - g')).

    Splitting into two parts per step suffices: full-partition optimality
    follows by induction and is asserted against a direct partition
    enumeration in the test suite.  M(g) is a certified lower bound for the
    maximal dimension of a compact special subvariety of genus g, and is
    exact whenever M(g) >= g - 1.
    """
    if g_max < 0:
        raise ValueError(f"g_max must be >= 0 (got {g_max})")
    return kernels.mdsp_table(kernels.best_indec_table(g_max))


def _smallest_dominating_n(k: int, target: Pair) -> int | None:
    """Smallest n with unitary_pair(k, n) strictly dominating the target
    (k >= 2), or None when none does.

    F(n) strictly increases from n = 2, so (k-1) F(n) > d holds exactly when
    F(n) >= d // (k-1) + 1, that is n^2 >= 4 (d // (k-1) + 1).  The genus
    k n grows with n, so the smallest such n dominates if any n does.
    """
    n = isqrt(4 * (target.d // (k - 1)) + 3) + 1
    return n if k * n <= target.g else None


def _search_strict_dominator(
    target: Pair, k_max: int, n_max: int
) -> tuple[int, int] | None:
    """Smallest (k, n) unitary pair strictly dominating the target, or None."""
    for k in range(2, k_max + 1):
        n = _smallest_dominating_n(k, target)
        if n is not None and n <= n_max:
            return (k, n)
    return None


def verify_claim_f(s_max: int, delta_max: int, k_max: int, n_max: int) -> VerificationReport:
    """Check that every division-family pair (families I_nc1/I_nc2 over
    s <= s_max, delta <= delta_max) is dominated by a k = 2 unitary pair,
    strictly except at the two known equality pairs (1, 4) and (4, 8).

    The designated witness is unitary_pair(2, floor(s delta^2 / 2)) for the
    rank-1 family and unitary_pair(2, s delta^2) for the rank-2 family; if a
    designated witness ever failed, a search over k <= k_max, n <= n_max
    would run before declaring a counterexample.

    Each family is taken in blocks of rows of about ``kernels.PAIR_BLOCK``
    cells (``kernels._row_blocks``): a column of s against the row of
    delta, one call of the array constructors and one failure mask per
    block.  A flat index decodes to (s, delta) in (s, delta) order, so the
    failures, the equalities and the witnesses come in the order of a scan
    pair by pair.  Only the listed failures are searched, in Python ints,
    one k at a time.  ``details["equalities"]`` lists the first
    ``MAX_LISTED`` equality pairs.  The equality set is checked cell by
    cell: each family's stated tie is its cell (s, delta) = (1, 2), the
    [0, 0] cell of its first block, which gives (1, 4) in I_nc1 and (4, 8)
    in I_nc2, and no other cell of either family gives either pair.  If
    that cell does not tie at that pair, the pair is missing; otherwise
    the cell is cleared from the block's ties.  Every tie left is
    unexpected, and the ``MAX_LISTED`` smallest are kept.  So a tie in one
    family cannot stand in for the other's, a wrong pair tied at the
    stated cell is listed, not taken for the stated one, and a run whose
    every cell ties holds no more than a passing one.  The largest value
    in a block is the rank-2 witness dimension F(s delta^2);
    F(n) <= n^2 / 4 <= 2^63 - 1 holds for n < 2^32.5, and s, delta <=
    ``MAX_SAFE_CLAIM_F`` = 1824 gives s delta^2 <= 1824^3 < 2^32.5 < 1825^3.
    """
    if min(s_max, delta_max, k_max, n_max) < 2:
        raise ValueError("all range bounds must be >= 2")
    kernels._require_at_most("s_max", s_max, MAX_SAFE_CLAIM_F)
    kernels._require_at_most("delta_max", delta_max, MAX_SAFE_CLAIM_F)
    report = VerificationReport(
        claim="claim-F",
        range={"s_max": s_max, "delta_max": delta_max, "k_max": k_max, "n_max": n_max},
    )
    equalities: list[dict] = []  # the first MAX_LISTED, for the report
    kept: list[tuple[int, int]] = []  # the smallest unexpected ties
    missing: list[list[int]] = []
    deltas = np.arange(2, delta_max + 1, dtype=np.int64)
    squares = deltas * deltas
    width = deltas.size
    branches = (
        (FAMILY_I_NC1, division_rank1_pairs, lambda s: s * squares // 2, "k=2, n=floor(s*delta^2/2)", [1, 4]),
        (FAMILY_I_NC2, division_rank2_pairs, lambda s: s * squares, "k=2, n=s*delta^2", [4, 8]),
    )
    for family, pairs_fn, witness_n, _, stated in branches:
        for s_lo, s in kernels._row_blocks(1, s_max, width):
            n_w = witness_n(s)
            wd, wg = unitary_pairs(2, n_w)
            td, tg = (np.broadcast_to(x, n_w.shape) for x in pairs_fn(s, deltas))
            covered = tg >= wg
            tie = covered & (td == wd)
            # the stated tie is the cell (s, delta) = (1, 2), tied at the stated pair
            at_stated = s_lo == 1 and tie[0, 0] and [int(td[0, 0]), int(tg[0, 0])] == stated
            if s_lo == 1 and not at_stated:
                missing.append(stated)
            ties, at = kernels._listing(tie, MAX_LISTED - len(equalities))
            if ties:
                for idx in at:
                    i, j = divmod(idx, width)
                    equalities.append(
                        {
                            "family": family,
                            "s": s_lo + i,
                            "delta": j + 2,
                            "pair": [int(td[i, j]), int(tg[i, j])],
                            "witness": {"family": FAMILY_I, "k": 2, "n": int(n_w[i, j])},
                        }
                    )
                if at_stated:
                    tie[0, 0] = False  # every other tie is unexpected
                d, g = td[tie], tg[tie]
                least = np.lexsort((g, d))[:MAX_LISTED]
                kept = sorted(kept + list(zip(d[least].tolist(), g[least].tolist())))[:MAX_LISTED]
                del d, g, least  # a block's worth each, freed before the next block

            def failure(idx: int) -> dict:
                i, j = divmod(idx, width)
                target = Pair(int(td[i, j]), int(tg[i, j]))
                entry = {"family": family, "s": s_lo + i, "delta": j + 2, "pair": [target.d, target.g]}
                found = _search_strict_dominator(target, k_max, n_max)
                if found is None:
                    entry["reason"] = "no dominating unitary pair in range"
                else:
                    entry["reason"] = "designated witness failed; search found one"
                    entry["witness"] = {"family": FAMILY_I, "k": found[0], "n": found[1]}
                return entry

            report.add(kernels._listing(~covered | (td > wd), report.room), failure)
    report.add(
        equality_diff(
            "equality pairs differ from {(1, 4), (4, 8)}", [list(pair) for pair in kept], missing
        )
    )
    report.witnesses = [
        {"family": family, "witness_rule": rule, "strict_except": [stated]}
        for family, _, _, rule, stated in branches
    ]
    report.details = {"pairs_checked": 2 * s_max * (delta_max - 1), "equalities": equalities}
    return report


def _row_fallback(
    report: VerificationReport, family: str, r: int, k: np.ndarray, d: np.ndarray, g: np.ndarray
) -> int | None:
    """The fallback witness of row r of a family, from the int64 arrays k,
    d and g of its cells whose designated witness failed, in k order: the
    smallest dominating n if every cell that has one has the same, -1 if
    they differ, None if no cell has one.  A cell with none is reported.

    All cells take :func:`_smallest_dominating_n`'s rule in one numpy pass:
    n = isqrt(x) + 1 with x = 4 (d // (k-1)) + 3, dominating when k n <= g.
    isqrt(x) is the floor of a float sqrt, corrected by one either way in
    integers: the float alone can be one too high once x passes 2^52.  A II
    or III target has d // (k-1) = r (r +- 1) / 2, so x < 2^44 for
    r <= ``MAX_SAFE_REMARK``."""
    x = 4 * (d // (k - 1)) + 3
    root = np.sqrt(x.astype(np.float64)).astype(np.int64)
    root -= root * root > x
    root += (root + 1) * (root + 1) <= x
    n = root + 1
    none = k * n > g
    report.add(
        kernels._listing(none, report.room),
        lambda j: {
            "family": family,
            "k": k.item(j),
            "r": r,
            "pair": [d.item(j), g.item(j)],
            "reason": "no same-k dominating unitary pair",
        },
    )
    found = n[~none]
    if found.size == 0:
        return None
    return found.item(0) if (found == found[0]).all() else -1


def witness_record(layout: tuple[str, bool], ints: tuple[int, ...]) -> dict:
    """The witness entry of a :func:`verify_remark_domination` row: its
    ``layout`` is (family, designated), its ``ints`` (r, 2, k_max, n)."""
    (family, designated), (r, k_lo, k_max, n) = layout, ints
    return {
        "family": family, "r": r, "k_range": [k_lo, k_max], "designated": designated,
        "witness": {"family": FAMILY_I, "k": "same", "n": n},
    }


def verify_remark_domination(r_max: int, k_max: int) -> VerificationReport:
    """Check that every II- and III-family pair in range is strictly
    dominated by a same-k unitary pair.

    Designated witnesses: n = 6 for III with r = 3 (same genus, larger
    dimension), n = 2r - 1 for II with r >= 4 and III with r >= 4.  For
    III with r = 2 the (I)_{2r-1} witness does not apply and the smallest
    dominating n, 4, is used instead.

    Each family is taken in blocks of rows of about ``kernels.PAIR_BLOCK``
    cells (``kernels._row_blocks``): a column of r against the row of k,
    one call of the array constructors and one failure mask per block.
    The block's rows are read in r order, each failing row's k in k order,
    so the failures and the per-r witness rows (:func:`witness_record`),
    zipped from the block's columns, come in the order of a scan pair by
    pair.  Only the k whose designated witness is not strict go to the
    closed-form rule (for III with r = 2, k_max - 1 of them), in one numpy
    pass per row (:func:`_row_fallback`).  The largest value in a
    block is the witness dimension (k-1) F(2r-1) = (k-1) r (r-1), below
    2^63 for k, r <= ``MAX_SAFE_REMARK`` = 2^21, where it is
    2^63 - 2^43 + 2^21; at k = r = 2^21 + 1 it is 2^63 + 2^42.
    """
    if min(r_max, k_max) < 2:
        raise ValueError("all range bounds must be >= 2")
    kernels._require_at_most("r_max", r_max, MAX_SAFE_REMARK)
    kernels._require_at_most("k_max", k_max, MAX_SAFE_REMARK)
    report = VerificationReport("remark-domination", {"r_max": r_max, "k_max": k_max}, record=witness_record)
    ks = np.arange(2, k_max + 1, dtype=np.int64)
    width = ks.size
    branches = (
        (FAMILY_II, orthogonal_star_pairs, 4),
        (FAMILY_III, quaternion_symplectic_pairs, 2),
    )
    for family, pairs_fn, r_lo in branches:
        ok, bad = (family, True), (family, False)  # the family's two layouts
        for r_start, r in kernels._row_blocks(r_lo, r_max, width):
            designated = 2 * r - 1
            if family == FAMILY_III:
                designated[r == 3] = 6
            wd, wg = unitary_pairs(ks, designated)
            td, tg = (np.broadcast_to(x, (r.size, width)) for x in pairs_fn(ks, r))
            failing = (td >= wd) | (tg < wg)
            ns, failed = designated[:, 0].tolist(), failing.any(1).tolist()
            for i in (i for i, f in enumerate(failed) if f):
                js = np.flatnonzero(failing[i])
                fallback_n = _row_fallback(report, family, r_start + i, ks[js], td[i, js], tg[i, js])
                if fallback_n is not None and fallback_n > 0:
                    ns[i] = fallback_n
            layouts = [bad if f else ok for f in failed]
            report.witnesses += zip(layouts, zip(count(r_start), repeat(2), repeat(k_max), ns))
    cases = max(0, r_max - 3) + r_max - 1  # II over r >= 4, III over r >= 2
    report.details = {"pairs_checked": cases * (k_max - 1)}
    return report
