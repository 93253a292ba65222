"""Bulk integer kernels behind the exhaustive range verifiers.

The scalar API (:mod:`agdim.arith`) uses Python integers and is exact for any
input.  The range verifiers, however, sweep millions of values, so their inner
loops run on numpy int64 arrays.  numpy releases the GIL inside its large
array loops, which is what lets :mod:`agdim.verify` run blocked scans on a
thread pool.

Exactness: int64 arithmetic overflows silently, so every kernel input is
validated against a ceiling derived from that kernel's largest intermediate
value (``MAX_SAFE_G``, ``MAX_SAFE_PIECEWISE_G``, ``MAX_SAFE_N``,
``MAX_SAFE_PAIR_B``, ``MAX_SAFE_D``).  Beyond its ceiling a kernel refuses
to run rather than return wrong answers; the scalar Python-int API remains
available at any size.

The 2-D scans loop in Python over one parameter only, and do the other in
numpy on contiguous or strided slices, with no gather and no ``ufunc.at``:
``superadditivity_scan`` takes one row per g1, a slice difference and its
min, and lists a row's pairs only where the min fails; ``best_indec_table``
takes one step per k <= isqrt(g_max).

Chunks and blocks: :mod:`agdim.verify` splits the ranges of
``piecewise_mismatches`` and ``f_bound_violations`` into blocks, one kernel
call each, which its thread pool runs in parallel.  Inside one call the
kernel walks its block in chunks of ``CHUNK`` values, and every step writes
through ``out=`` into a few buffers that the call allocates once.  So a call
allocates no array per step, whatever the block's length, and its working
set (the chunk's values, two int64 buffers and one mask, about 1.6 MB at
64K values) stays in a core's L2 cache instead of streaming a fresh
temporary of the whole block through memory at every step.  A call returns
the number of failing values and the first ``MAX_LISTED`` of them, so a
block that fails everywhere costs no more memory than one that passes.

``CHUNK`` is the fastest size of an interleaved sweep run as the benchmark's
scan runs these kernels, with the pool's two workers, on a 2-CPU x86 VM with
2 MB of L2 per core: ``dmax-piecewise`` at 1e7 and 1.6e7 plus ``f-bounds``
at 1e7 and 2.4e7 took 300 ms at 32K, 257 ms at 64K and 292 ms at 128K
(medians of 9 rounds).  Smaller chunks pay numpy's per-call overhead more
often, larger ones spill out of L2; a one-thread sweep of one block had
favoured 32K.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .report import MAX_LISTED

__all__ = [
    "BACKEND",
    "MAX_SAFE_G",
    "MAX_SAFE_PIECEWISE_G",
    "MAX_SAFE_N",
    "MAX_SAFE_PAIR_B",
    "MAX_SAFE_D",
    "half_products",
    "dmax_values",
    "Found",
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
# D[g1+g2] - D[g2] - D[g1] in superadditivity_scan stays within 3 max|D|.
MAX_SAFE_D = (2**63 - 1) // 3
# n^2 < 2^63 requires n < ~3.04e9.
MAX_SAFE_N = 3_000_000_000
# a * b <= b^2 stays far below 2^63.
MAX_SAFE_PAIR_B = 1_000_000_000
# Cells (a, b) per block of pair_efficiency_mismatches.
PAIR_BLOCK = 1 << 14
# Values per chunk of piecewise_mismatches and f_bound_violations.
CHUNK = 1 << 16


def _require_at_most(name: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise OverflowError(
            f"{name}={value} exceeds the int64-safe kernel ceiling {ceiling}; "
            "use the scalar Python-int API for values this large"
        )


def half_products(
    ns: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
) -> np.ndarray:
    """F(n) = ceil(n/2) floor(n/2) elementwise, at most n^2/4; ``ns`` may be
    an int.  Given int64 buffers ``out`` and ``tmp`` of ``ns``' shape, the
    same steps write into them, and the result is ``out``."""
    if out is None:  # Python-int arithmetic for an int ns, as the pair constructors pass
        return ((ns + 1) >> 1) * (ns >> 1)
    np.right_shift(np.add(ns, 1, out=out), 1, out=out)
    return np.multiply(out, np.right_shift(ns, 1, out=tmp), out=out)


def _dmax(
    gs: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
) -> np.ndarray:
    """max(g - 1, floor(floor(g/2)^2 / 4)) elementwise, computed in ``out``
    and ``tmp`` as :func:`half_products` does."""
    out = np.right_shift(gs, 1, out=out)
    np.multiply(out, out, out=out)
    np.right_shift(out, 2, out=out)
    return np.maximum(out, np.subtract(gs, 1, out=tmp), out=out)


def dmax_values(gs: np.ndarray) -> np.ndarray:
    """Vectorized dmax over an int64 array of genera (all >= 1)."""
    gs = np.ascontiguousarray(gs, dtype=np.int64)
    if gs.size:
        lo = int(gs.min())
        if lo < 1:
            raise ValueError(f"dmax is defined for g >= 1 (got g={lo})")
        _require_at_most("g", int(gs.max()), MAX_SAFE_G)
    return _dmax(gs)


def _chunks(
    lo: int, hi: int, ints: int, masks: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Split lo..hi into chunks of at most ``CHUNK`` values.  Per chunk,
    yield its first value, its values and ``ints`` int64 and ``masks`` bool
    buffers of its length: views of arrays allocated once per call.  The
    values buffer steps on in place from chunk to chunk, so the caller
    must only read it."""
    size = min(CHUNK, hi - lo + 1)
    values = np.arange(lo, lo + size, dtype=np.int64)
    int_bufs = np.empty((ints, size), dtype=np.int64)
    mask_bufs = np.empty((masks, size), dtype=bool)
    for start in range(lo, hi + 1, size):
        if start > lo:
            np.add(values, size, out=values)
        m = min(size, hi + 1 - start)
        yield start, values[:m], int_bufs[:, :m], mask_bufs[:, :m]


class Found(NamedTuple):
    """What a chunked kernel found: how many values fail, and the first
    ``MAX_LISTED`` of them, ascending."""

    total: int
    listed: np.ndarray


def _found(chunks: Iterator[tuple[int, np.ndarray]]) -> Found:
    """Count the failing values of each (first value, failure mask) chunk,
    and list them until ``MAX_LISTED`` are listed."""
    total, listed = 0, []
    for start, failing in chunks:
        n = int(np.count_nonzero(failing))
        total += n
        if n and len(listed) < MAX_LISTED:
            listed += (np.flatnonzero(failing)[: MAX_LISTED - len(listed)] + start).tolist()
    return Found(total, np.array(listed, dtype=np.int64))


def piecewise_mismatches(g_lo: int, g_hi: int) -> Found:
    """Genera in [g_lo, g_hi] where the max-form and the three-branch form of
    dmax disagree (expected: none).

    The three branches are g - 1 for g <= 15, floor(g^2/16) for even g >= 16
    and floor((g-1)^2/16) for odd g >= 17.  From g = 16 on, the even and the
    odd genera of a chunk alternate, so each branch is one strided view.
    """
    if g_lo < 1 or g_hi < g_lo:
        raise ValueError(f"need 1 <= g_lo <= g_hi (got {g_lo}, {g_hi})")
    _require_at_most("g", g_hi, MAX_SAFE_PIECEWISE_G)

    def differ() -> Iterator[tuple[int, np.ndarray]]:
        for start, gs, (general, piecewise), (mask,) in _chunks(g_lo, g_hi, ints=2, masks=1):
            general = _dmax(gs, general, piecewise)
            np.subtract(gs, 1, out=piecewise)
            first = max(0, 16 - start)  # index of g = 16, or 0 past it
            even = slice(first + (start + first) % 2, None, 2)
            odd = slice(first + (start + first + 1) % 2, None, 2)
            for branch, base in ((piecewise[even], gs[even]), (piecewise[odd], piecewise[odd])):
                np.multiply(base, base, out=branch)  # g^2 or (g - 1)^2
                np.right_shift(branch, 4, out=branch)
            yield start, np.not_equal(general, piecewise, out=mask)

    return _found(differ())


def f_bound_violations(n_lo: int, n_hi: int) -> Found:
    """n in [n_lo, n_hi] violating (n^2-1)/4 <= F(n) <= n^2/4 (expected:
    none).  The sandwich holds exactly when d = n^2 - 4 F(n) is 0 or 1, so
    one comparison of d's uint64 view with 1 tests both sides: a negative d
    reads as at least 2^63.  d is exact in int64 for n <= ``MAX_SAFE_N``."""
    if n_lo < 2 or n_hi < n_lo:
        raise ValueError(f"need 2 <= n_lo <= n_hi (got {n_lo}, {n_hi})")
    _require_at_most("n", n_hi, MAX_SAFE_N)

    def violated() -> Iterator[tuple[int, np.ndarray]]:
        for start, ns, (f4, d), (mask,) in _chunks(n_lo, n_hi, ints=2, masks=1):
            f4 = half_products(ns, f4, d)
            np.multiply(f4, 4, out=f4)
            np.subtract(np.multiply(ns, ns, out=d), f4, out=d)
            yield start, np.greater(d.view(np.uint64), 1, out=mask)

    return _found(violated())


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


def _low_pairs(row: np.ndarray, g1: int) -> tuple[np.ndarray, np.ndarray]:
    """The g2 of row g1's violations and equalities, where row[j] is the
    difference of the pair (g1, g1 + j).  Its temporaries end with the call,
    so a listed row keeps only its two results."""
    g2s = np.flatnonzero(row <= 0)
    values = row[g2s]
    g2s += g1
    return g2s[values < 0], g2s[values == 0]


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
    reused buffer and one min.  Only a row whose min is at most D[g1] is
    listed, and in a passing table that is the g1 = 1 row alone.  The
    largest intermediate, D[g1+g2] - D[g2] - D[g1], stays within 3 max|D|,
    which ``MAX_SAFE_D`` bounds.
    """
    D = np.ascontiguousarray(D, dtype=np.int64)
    if D.size:
        _require_at_most("|D[g]|", max(-int(D.min()), int(D.max())), MAX_SAFE_D)
    g_max = D.shape[0] - 1
    diff = np.empty(max(g_max, 0), dtype=np.int64)
    violations: list[tuple[int, int]] = []
    others: list[tuple[int, int]] = []
    first_row = np.empty(0, dtype=np.int64)
    violations_total = others_total = 0
    for g1 in range(1, g_max // 2 + 1):
        m = g_max - 2 * g1 + 1  # g2 in g1..g_max-g1
        row = np.subtract(D[2 * g1 :], D[g1 : g1 + m], out=diff[:m])
        if row.min() > D[g1]:
            continue
        row -= D[g1]
        below, equal = _low_pairs(row, g1)
        violations_total += below.size
        violations += [(g1, g2) for g2 in below[: MAX_LISTED - len(violations)].tolist()]
        if g1 == 1:
            first_row = equal
        else:
            others_total += equal.size
            others += [(g1, g2) for g2 in equal[: MAX_LISTED - len(others)].tolist()]
    # the equality rows, written in place: the g1 = 1 row, then the others
    equalities = np.empty((first_row.size + len(others), 2), dtype=np.int64)
    equalities[: first_row.size, 0] = 1
    equalities[: first_row.size, 1] = first_row
    equalities[first_row.size :] = _rows(others)
    return SuperadditivityScan(
        violations=_rows(violations),
        violations_total=violations_total,
        equalities=equalities,
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
    row = np.arange(g_max // 2 + 1, dtype=np.int64)
    F = half_products(row, np.empty_like(row), row)  # F(n) for n <= g_max // 2
    # row is scratch from here on: (k - 1) F(n) of one k at a time
    for k in range(2, math.isqrt(g_max) + 1):
        n_hi = g_max // k
        if n_hi < 3:
            break
        view = bi[3 * k : k * n_hi + 1 : k]
        np.maximum(view, np.multiply(F[3 : n_hi + 1], k - 1, out=row[: n_hi - 2]), out=view)
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
