"""Bulk integer kernels behind the exhaustive range verifiers.

The scalar API (:mod:`agdim.arith`) uses Python integers and is exact for any
input.  The range verifiers, however, sweep millions of values, so their inner
loops run on numpy int64 arrays.  numpy releases the GIL inside its large
array loops, which is what lets :mod:`agdim.verify` run blocked scans on a
thread pool.

Exactness: int64 arithmetic overflows silently, so every kernel input is
validated against a ceiling derived from that kernel's largest intermediate
value (``MAX_SAFE_G``, ``MAX_SAFE_PIECEWISE_G``, ``MAX_SAFE_N``,
``MAX_SAFE_PAIR_B``).  Beyond its ceiling a kernel refuses to run rather than
return wrong answers; the scalar Python-int API remains available at any size.

The 2-D scans loop in Python over one parameter only, and do the other in
numpy on contiguous or strided slices, with no gather and no ``ufunc.at``:
``superadditivity_scan`` takes one row per g1 and ``best_indec_table`` one
step per k <= isqrt(g_max).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .report import MAX_LISTED

__all__ = [
    "BACKEND",
    "MAX_SAFE_G",
    "MAX_SAFE_PIECEWISE_G",
    "MAX_SAFE_N",
    "MAX_SAFE_PAIR_B",
    "half_products",
    "dmax_values",
    "piecewise_mismatches",
    "f_bound_violations",
    "SuperadditivityScan",
    "superadditivity_scan",
    "best_indec_table",
    "mdsp_table",
    "pair_efficiency_mismatches",
]

BACKEND = "numpy"

# floor(g/2)^2 < 2^63 requires g/2 < ~3.04e9; stay well inside.
MAX_SAFE_G = 4_000_000_000
# The three-branch form of dmax squares g itself: g^2 <= 2^63 - 1.
MAX_SAFE_PIECEWISE_G = math.isqrt(2**63 - 1)
# n^2 < 2^63 requires n < ~3.04e9.
MAX_SAFE_N = 3_000_000_000
# a * b <= b^2 stays far below 2^63.
MAX_SAFE_PAIR_B = 1_000_000_000
# Cells (a, b) per block of pair_efficiency_mismatches.
PAIR_BLOCK = 1 << 14


def _require_at_most(name: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise OverflowError(
            f"{name}={value} exceeds the int64-safe kernel ceiling {ceiling}; "
            "use the scalar Python-int API for values this large"
        )


def half_products(ns: np.ndarray) -> np.ndarray:
    """F(n) = ceil(n/2) floor(n/2) elementwise, at most n^2/4."""
    return ((ns + 1) >> 1) * (ns >> 1)


def _dmax(gs: np.ndarray) -> np.ndarray:
    half = gs >> 1
    return np.maximum(gs - 1, (half * half) >> 2)


def dmax_values(gs: np.ndarray) -> np.ndarray:
    """Vectorized dmax over an int64 array of genera (all >= 1)."""
    gs = np.ascontiguousarray(gs, dtype=np.int64)
    if gs.size:
        lo = int(gs.min())
        if lo < 1:
            raise ValueError(f"dmax is defined for g >= 1 (got g={lo})")
        _require_at_most("g", int(gs.max()), MAX_SAFE_G)
    return _dmax(gs)


def piecewise_mismatches(g_lo: int, g_hi: int) -> np.ndarray:
    """Genera in [g_lo, g_hi] where the max-form and the three-branch form of
    dmax disagree (expected: none)."""
    if g_lo < 1 or g_hi < g_lo:
        raise ValueError(f"need 1 <= g_lo <= g_hi (got {g_lo}, {g_hi})")
    _require_at_most("g", g_hi, MAX_SAFE_PIECEWISE_G)
    gs = np.arange(g_lo, g_hi + 1, dtype=np.int64)
    general = _dmax(gs)
    piecewise = gs - 1
    even = (gs >= 16) & (gs % 2 == 0)
    odd = (gs >= 17) & (gs % 2 == 1)
    piecewise = np.where(even, (gs * gs) >> 4, piecewise)
    gm1 = gs - 1
    piecewise = np.where(odd, (gm1 * gm1) >> 4, piecewise)
    return gs[general != piecewise]


def f_bound_violations(n_lo: int, n_hi: int) -> np.ndarray:
    """n in [n_lo, n_hi] violating (n^2-1)/4 <= F(n) <= n^2/4, compared in
    integers as n^2-1 <= 4 F(n) <= n^2 (expected: none)."""
    if n_lo < 2 or n_hi < n_lo:
        raise ValueError(f"need 2 <= n_lo <= n_hi (got {n_lo}, {n_hi})")
    _require_at_most("n", n_hi, MAX_SAFE_N)
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    f4 = 4 * half_products(ns)
    sq = ns * ns
    bad = (f4 < sq - 1) | (f4 > sq)
    return ns[bad]


class SuperadditivityScan(NamedTuple):
    """What :func:`superadditivity_scan` found, as (g1, g2) row arrays in
    ascending order; ``equalities`` holds at most ``MAX_LISTED`` rows with
    g1 >= 2 and ``violations`` at most ``MAX_LISTED`` rows."""

    violations: np.ndarray  # the first rows with a negative difference
    violations_total: int
    equalities: np.ndarray  # every g1 = 1 row, then the first g1 >= 2 rows, with difference 0
    equalities_total: int


def _rows(pairs: list[tuple[int, int]]) -> np.ndarray:
    return np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)


def superadditivity_scan(D: np.ndarray) -> SuperadditivityScan:
    """Scan dmax(g1+g2) - dmax(g1) - dmax(g2) over 1 <= g1 <= g2 with
    g1+g2 <= len(D)-1, where D[g] = dmax(g) (D[0] ignored).

    The superadditivity claim is that there are no violations, and that the
    equalities are exactly g1 = 1 with g2 even >= 16.  So the scan returns
    both counts, every g1 = 1 equality and the first ``MAX_LISTED``
    violations and other equalities: enough to list the claim's
    counterexamples, while a broken D costs no memory per failing row.

    One row per g1: with g2 = g1 + j, D[g1+g2] and D[g2] are the contiguous
    slices D[2 g1 + j] and D[g1 + j], so a row is one slice difference in a
    reused buffer and one pass that picks the pairs with difference <= 0.
    """
    D = np.ascontiguousarray(D, dtype=np.int64)
    g_max = D.shape[0] - 1
    diff = np.empty(max(g_max, 0), dtype=np.int64)
    low = np.empty(max(g_max, 0), dtype=bool)
    violations: list[tuple[int, int]] = []
    others: list[tuple[int, int]] = []
    first_row = np.empty(0, dtype=np.int64)
    violations_total = others_total = 0
    for g1 in range(1, g_max // 2 + 1):
        m = g_max - 2 * g1 + 1  # g2 in g1..g_max-g1
        row, hit = diff[:m], low[:m]
        np.subtract(D[2 * g1 :], D[g1 : g1 + m], out=row)
        np.less_equal(row, D[g1], out=hit)
        j = np.flatnonzero(hit)
        if not j.size:
            continue
        values = row[j] - D[g1]
        g2s = j + g1
        below, equal = g2s[values < 0], g2s[values == 0]
        violations_total += below.size
        violations += [(g1, g2) for g2 in below[: MAX_LISTED - len(violations)].tolist()]
        if g1 == 1:
            first_row = equal
        else:
            others_total += equal.size
            others += [(g1, g2) for g2 in equal[: MAX_LISTED - len(others)].tolist()]
    return SuperadditivityScan(
        violations=_rows(violations),
        violations_total=violations_total,
        equalities=np.concatenate([np.stack([np.ones_like(first_row), first_row], axis=1), _rows(others)]),
        equalities_total=first_row.size + others_total,
    )


def best_indec_table(g_max: int) -> np.ndarray:
    """Table bi[g] = best dimension of a single-family pair of genus exactly
    g (quaternionic-curve and unitary families), 0 where no pair exists.

    The unitary pairs are ((k-1) F(n), k n) with k >= 2, n >= 3, k n <= g_max.
    Only k <= isqrt(g_max) can give the best pair of a genus: if k > n >= 3,
    the same genus n k has the pair with the roles swapped, and it is
    strictly larger, (n-1) F(k) > (k-1) F(n).  (From 4 F(k) >= k^2 - 1 and
    4 F(n) <= n^2: (n-1)(k^2-1) - (k-1) n^2 = (k-1)((k-n)(n-1) - 1) > 0.)
    So the table takes one Python step per k <= isqrt(g_max), over all its
    n at once: the genera k n form an arithmetic progression, and the step
    is one np.maximum into a strided view of bi.  The largest value,
    (k-1) F(n) < g_max n / 4 <= g_max^2 / 8, is what ``MAX_SAFE_G`` bounds.
    """
    if g_max < 0:
        raise ValueError(f"g_max must be >= 0 (got {g_max})")
    _require_at_most("g", g_max, MAX_SAFE_G)
    bi = np.zeros(g_max + 1, dtype=np.int64)
    if g_max >= 2:
        bi[2] = 1  # the quaternionic curve pair (1, 2)
    F = half_products(np.arange(g_max // 2 + 1, dtype=np.int64))
    for k in range(2, math.isqrt(g_max) + 1):
        n_hi = g_max // k
        if n_hi < 3:
            break
        view = bi[3 * k : k * n_hi + 1 : k]
        np.maximum(view, (k - 1) * F[3 : n_hi + 1], out=view)
    return bi


def mdsp_table(bi: np.ndarray) -> np.ndarray:
    """Superadditive closure of a best-pair table: M[0] = 0 and
    M[g] = max(bi[g], max_{0<g'<g} M[g'] + M[g-g'])."""
    bi = np.ascontiguousarray(bi, dtype=np.int64)
    g_max = bi.shape[0] - 1
    M = np.zeros(g_max + 1, dtype=np.int64)
    for g in range(1, g_max + 1):
        best = bi[g]
        h = g // 2
        if h >= 1:
            splits = M[1 : h + 1] + M[g - 1 : g - h - 1 : -1]
            best = max(best, int(splits.max()))
        M[g] = best
    return M


def pair_efficiency_mismatches(a_max: int, b_max: int) -> np.ndarray:
    """(a, b) with 2 <= a <= a_max and a <= b <= b_max where 'ab < 2(a+b)'
    and '(a-2)(b-2) < 4' disagree (expected: none), ascending.

    Rows of a are taken in blocks of about ``PAIR_BLOCK`` cells, each block
    one broadcast over a rectangle with the cells b < a masked out, so the
    default 200 x 200 window takes three numpy passes of about 128 kB
    per array.
    """
    if a_max < 2 or b_max < a_max:
        raise ValueError(f"need 2 <= a_max <= b_max (got {a_max}, {b_max})")
    _require_at_most("b_max", b_max, MAX_SAFE_PAIR_B)
    out: list[np.ndarray] = []
    rows = max(1, PAIR_BLOCK // (b_max - 1))
    for a_lo in range(2, a_max + 1, rows):
        a = np.arange(a_lo, min(a_lo + rows, a_max + 1), dtype=np.int64)[:, None]
        b = np.arange(a_lo, b_max + 1, dtype=np.int64)[None, :]
        oracle = a * b < 2 * (a + b)
        closed = (a - 2) * (b - 2) < 4
        i, j = np.nonzero((oracle != closed) & (b >= a))
        if i.size:
            out.append(np.stack([a[i, 0], b[0, j]], axis=1))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out)
