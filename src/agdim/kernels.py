"""Bulk integer kernels behind the exhaustive range verifiers.

The scalar API (:mod:`agdim.arith`) uses Python integers and is exact for any
input.  The range verifiers, however, sweep millions of values, so their inner
loops run on numpy int64 arrays, on the calling thread: numpy releases the
GIL inside its array loops, but over the short arrays of a stretch a second
thread buys little, as the sweep at the end of this docstring measures.
``mdsp_table`` alone is one Python-int pass, exact at any size.

Exactness: int64 arithmetic overflows silently, so every kernel input is
validated against a ceiling derived from that kernel's largest intermediate
value (``MAX_SAFE_G``, ``MAX_SAFE_PIECEWISE_G``, ``MAX_SAFE_N``,
``MAX_SAFE_PAIR_B``, ``MAX_SAFE_D``).  Beyond its ceiling a kernel refuses
to run rather than return wrong answers; the scalar Python-int API remains
available at any size.

The 2-D scans loop in Python over one parameter only, and do the other in
numpy on contiguous or strided slices, with no gather and no ``ufunc.at``:
``best_indec_table`` takes one step per k <= isqrt(g_max), and
``superadditivity_scan`` one row per g1 that its block bounds leave.  Those
bounds read D's minima and maxima over blocks of genera, taken from D by
strided passes for the first band of g1 and halved pairwise for each later
one, and each clears a whole block of pairs that holds no violation and no
equality; on dmax they clear every row but the first 31, so the scan does
near-linear work where a row per g1 made it quadratic.  A row is a slice
difference and its min, and its pairs are listed only where the min fails;
the first row, which holds every stated equality, is checked against that
set as it is formed, so the scan returns the claim's listings, not the row.

Chunks and stretches: every bulk scan walks its range in one of three ways.
``_chunks`` takes a range of values in chunks of ``CHUNK``, with a few int64
and bool buffers that it allocates once and every step writes into through
``out=``: :mod:`agdim.verify`'s table build for ``lemma-dmax`` and
comparison for ``prop-estimate``.  ``_parity_halves`` takes a range in
stretches of ``CHUNK`` values, each as one contiguous array of its even
values E, stepped on in place, with buffers of E's length:
``piecewise_mismatches`` and ``f_bound_violations``, each run by
:mod:`agdim.verify` as one call over the whole range.  The odd value at an
index is E + 1, so what the two parities share (dmax's square part and
the branch, or floor(n/2) and its square) is computed once over E, and
each parity adds only its own few contiguous passes.  ``_row_blocks``
takes the rows of a 2-D scan in blocks of about ``PAIR_BLOCK`` cells:
``pair_efficiency_mismatches`` here, and the two domination checks of
:mod:`agdim.pairs`.  So a call allocates no array per step, whatever its
range, and its working set stays in a core's L2 cache instead of
streaming a fresh temporary of the whole range through memory at every
step: 17 bytes per value of a stretch, 1.1 MB at 64K values, for both
kernels (the even values, three int64 buffers and two masks of half a
stretch).  A call returns the number of failing values and the first
``MAX_LISTED`` of them.

Listing: ``_listing`` is the one place where the first entries of a
failure mask are listed, with the mask's count, for every kernel here and
every verifier of :mod:`agdim.verify` and :mod:`agdim.pairs`.  It finds
each listed index by a bool ``argmax`` from the one before, over windows
of ``LIST_WINDOW`` entries, and never takes a whole-mask ``flatnonzero``,
so a scan that fails everywhere costs no more memory than one that
passes, beyond the rows its report lists.

``CHUNK`` was sized by an interleaved sweep run as the benchmark's scan
runs these kernels, one call on one thread, on a 2-CPU x86 VM with 2 MB
of L2 per core: ``dmax-piecewise`` at 1e7 and 1.6e7 plus ``f-bounds`` at
1e7 and 2.4e7 took 157-158 ms at 16K, 129-130 ms at 32K, 112-113 ms at
64K and 125-126 ms at 128K (sums of medians of 9 rounds, two sweeps).
Smaller chunks pay numpy's per-call overhead more often, and larger ones
fall out of L2.  On the same VM, two threads over the two halves of each
of these four ranges took 0.89-1.06x the wall time of one, for 1.0-1.5x
its CPU (medians of 15 interleaved rounds, four sweeps).  A second
thread buys at most about a tenth of the wall time for up to half again
the CPU, so the kernels run on the calling thread.
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
# D[g1+g2] - D[g2] - D[g1] in superadditivity_scan, and each of its block
# bounds, stays within 3 max|D|.
MAX_SAFE_D = (2**63 - 1) // 3
# f_bound_violations squares n: n^2 <= 2^63 - 1.
MAX_SAFE_N = math.isqrt(2**63 - 1)
# a * b <= b^2 stays far below 2^63.
MAX_SAFE_PAIR_B = 1_000_000_000
# Cells per block of the three pair scans: (a, b) in pair_efficiency_mismatches,
# (s, delta) in pairs.verify_claim_f and (r, k) in pairs.verify_remark_domination.
PAIR_BLOCK = 1 << 14
# Values per chunk of _chunks, and per stretch of _parity_halves, the walk of
# piecewise_mismatches and f_bound_violations.
CHUNK = 1 << 16
# Entries of a mask that _listing searches at a time.
LIST_WINDOW = 1 << 12
# Rows g1 below this are scanned whole by superadditivity_scan; the bands of
# block bounds start here, at a block width of WHOLE_ROWS / 8.
WHOLE_ROWS = 32


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
    gs: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """max(g - 1, floor(floor(g/2)^2 / 4)) elementwise, computed in the
    int64 buffer ``out`` of ``gs``' shape and, for the genera where g - 1
    wins, the bool buffer ``scratch``; both are allocated when not given."""
    out = np.right_shift(gs, 1, out=out)
    np.multiply(out, out, out=out)
    np.right_shift(out, 2, out=out)
    scratch = np.less(out, gs, out=scratch)
    return np.subtract(gs, 1, out=out, where=scratch)


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


def _parity_halves(
    lo: int, hi: int, ints: int, masks: int
) -> Iterator[tuple[np.ndarray, int, np.ndarray, np.ndarray]]:
    """Split lo..hi, lo even, into stretches of at most ``CHUNK`` values.
    Per stretch, yield its even values E, ascending, the count k of its
    odd values, which are E[:k] + 1, and ``ints`` int64 and ``masks`` bool
    buffers of E's length: views of arrays allocated once per call.  k is
    E's length, or one less when the range ends on an even value.  E steps
    on in place from stretch to stretch, so the caller must only read it."""
    size = min(max(1, CHUNK // 2), (hi - lo) // 2 + 1)  # even values in a stretch
    evens = np.arange(lo, lo + 2 * size, 2, dtype=np.int64)
    int_bufs = np.empty((ints, size), dtype=np.int64)
    mask_bufs = np.empty((masks, size), dtype=bool)
    for start in range(lo, hi + 1, 2 * size):
        if start > lo:
            np.add(evens, 2 * size, out=evens)
        left = hi + 1 - start  # values from this stretch to the range's end
        m = min(size, (left + 1) // 2)
        yield evens[:m], min(size, left // 2), int_bufs[:, :m], mask_bufs[:, :m]


def _row_blocks(lo: int, hi: int, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """Split the rows lo..hi of a scan ``width`` cells wide into blocks of
    about ``PAIR_BLOCK`` cells, one row at least.  Per block, yield its
    first row and its rows as an int64 column."""
    rows = max(1, PAIR_BLOCK // width)
    for start in range(lo, hi + 1, rows):
        yield start, np.arange(start, min(start + rows, hi + 1), dtype=np.int64)[:, None]


class Found(NamedTuple):
    """What a listing kernel found: how many values (or pairs) fail, and the
    first ``MAX_LISTED`` of them, ascending."""

    total: int
    listed: np.ndarray


def _listing(mask: np.ndarray, room: int, unset: bool = False) -> tuple[int, list[int]]:
    """How many entries of ``mask``, read flat, are set (or, with ``unset``,
    are not), and the indices of the first ``room`` of them in order: the
    one listing primitive of every claim.  Each index is found by a bool
    ``argmax`` (``argmin`` for unset entries) from the one before, over
    windows of ``LIST_WINDOW`` entries, never by a whole-mask
    ``flatnonzero``, so listing allocates nothing of the mask's length: a
    contiguous window is searched in place, and a strided view is not
    negated, only each window of it copied, as numpy's search copies a view
    that is not contiguous.  Every 2-D mask listed is C-contiguous, so
    reading it flat copies nothing."""
    flat = mask.reshape(-1)
    total = int(np.count_nonzero(flat))
    total = flat.size - total if unset else total
    search = np.argmin if unset else np.argmax
    found, at = [], 0
    while len(found) < min(room, total):
        window = flat[at : at + LIST_WINDOW]
        i = int(search(window))
        if window[i] != unset:
            found.append(at + i)
        at += i + 1 if window[i] != unset else window.size
    return total, found


def _found(stretches: Iterator[tuple[tuple[np.ndarray, int, np.ndarray], ...]]) -> Found:
    """The failing values of the stretches, each given as (values, shift,
    failure mask) parts, whose value at index i is values[i] + shift and
    ascends: their count, and the first ``MAX_LISTED`` in ascending order,
    the parts of a stretch merged.  A stretch is counted here and listed
    through :func:`_listing` only where it fails while there is room, so a
    passing stretch costs one count per part and no more Python."""
    listed, total = [], 0
    for parts in stretches:
        counts = [int(np.count_nonzero(failing)) for _, _, failing in parts]
        total += sum(counts)
        if any(counts) and len(listed) < MAX_LISTED:
            firsts = []
            for values, shift, failing in parts:
                firsts += [values.item(i) + shift for i in _listing(failing, MAX_LISTED - len(listed))[1]]
            listed += sorted(firsts)[: MAX_LISTED - len(listed)]
    return Found(total, np.array(listed, dtype=np.int64))


def _square_part(gs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """floor(floor(g/2)^2 / 4) at the genera gs, written into ``out``: the
    square part of dmax's max form, the same for 2m and 2m + 1."""
    np.right_shift(gs, 1, out=out)
    np.multiply(out, out, out=out)
    return np.right_shift(out, 2, out=out)


def _max_form(below: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """dmax's max form max(g - 1, q), given g - 1 (``below``) and the square
    part q = floor(floor(g/2)^2 / 4) at each genus g, written into ``out``;
    a function of its own, so that a test can inject a fault into it."""
    return np.maximum(below, q, out=out)


def piecewise_mismatches(g_lo: int, g_hi: int) -> Found:
    """Genera in [g_lo, g_hi] where the max-form and the three-branch form of
    dmax disagree (expected: none).

    The three branches are g - 1 for g <= 15, floor(g^2/16) for even g >= 16
    and floor((g-1)^2/16) for odd g >= 17.  Genera 1..15 are one small
    array against g - 1.  From g = 16 on, the walk takes stretches of
    ``CHUNK`` genera, each as its even genera E (``_parity_halves``), from
    an even genus: an odd g_lo's even neighbour g_lo - 1 is computed and
    left out.  The odd genus at an index is E + 1, so E serves both halves:
    it is the odd genus's g - 1, floor(E^2/16) is the branch of both, and
    the max form's square part q = floor(floor(E/2)^2 / 4) is too, as
    floor(g/2) is the same for E and E + 1.  The odd half takes its max
    form max(E, q) (``_max_form``) from these alone, the even half takes
    E - 1 and then its own; each half then takes one ``not_equal`` and a
    count, and a stretch's failing genera of both halves are merged in
    ascending order into the listing.
    """
    if g_lo < 1 or g_hi < g_lo:
        raise ValueError(f"need 1 <= g_lo <= g_hi (got {g_lo}, {g_hi})")
    _require_at_most("g", g_hi, MAX_SAFE_PIECEWISE_G)

    def differ() -> Iterator[tuple[tuple[np.ndarray, int, np.ndarray], ...]]:
        if g_lo <= 15:
            gs = np.arange(g_lo, min(g_hi, 15) + 1, dtype=np.int64)
            below = gs - 1
            max_form = _max_form(below, _square_part(gs, np.empty_like(gs)), np.empty_like(gs))
            yield ((gs, 0, np.not_equal(max_form, below)),)
        if g_hi < 16:
            return
        lo = max(g_lo, 16)
        skip = lo % 2  # the even genus lo - 1 below an odd lo, left out
        halves = _parity_halves(lo - skip, g_hi, ints=3, masks=2)
        for evens, k, (q, branch, below), (even_fail, odd_fail) in halves:
            _square_part(evens, q)
            np.right_shift(np.multiply(evens, evens, out=branch), 4, out=branch)
            np.not_equal(_max_form(evens[:k], q[:k], below[:k]), branch[:k], out=odd_fail[:k])
            np.subtract(evens, 1, out=below)
            np.not_equal(_max_form(below, q, q), branch, out=even_fail)
            yield ((evens[skip:], 0, even_fail[skip:]), (evens[:k], 1, odd_fail[:k]))
            skip = 0

    return _found(differ())


def _half_products_of(
    ns: np.ndarray, sq: np.ndarray, h: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """F(n) = floor(n/2) ceil(n/2) at the values ns of one parity half,
    given sq = floor(n/2)^2 at each of them: sq itself for even ns, and
    for odd ns, given h = floor(n/2) too, sq + h written into ``out``.  A
    function of its own, so that a test can inject a fault into it."""
    return sq if h is None else np.add(sq, h, out=out)


def f_bound_violations(n_lo: int, n_hi: int) -> Found:
    """n in [n_lo, n_hi] violating (n^2-1)/4 <= F(n) <= n^2/4 (expected:
    none).  As 4 F(n) is a multiple of 4 and n^2 mod 4 is 0 or 1, the
    sandwich n^2 - 1 <= 4 F(n) <= n^2 holds exactly when 4 F(n) is the
    multiple of 4 in [n^2 - 1, n^2], that is when F(n) = floor(n^2/4): one
    comparison of F with ``n * n >> 2`` tests both sides.  n * n is exact
    in int64 for n <= ``MAX_SAFE_N`` = isqrt(2^63 - 1).

    The walk is ``piecewise_mismatches``': stretches of ``CHUNK`` values,
    each as its even values E (``_parity_halves``), from an even n, an odd
    n_lo's even neighbour computed and left out.  With h = E >> 1,
    F(E) = h h and F(E + 1) = h h + h, so h and h h are computed once for
    both halves (``_half_products_of``).  The odd values E + 1 are written
    into a buffer, where each half's floor(n^2/4) is then squared from its
    own n.  The odd half goes first: the even half's F is the buffer h h
    itself, so a fault injected into it in place reaches the even half
    alone."""
    if n_lo < 2 or n_hi < n_lo:
        raise ValueError(f"need 2 <= n_lo <= n_hi (got {n_lo}, {n_hi})")
    _require_at_most("n", n_hi, MAX_SAFE_N)

    def violated() -> Iterator[tuple[tuple[np.ndarray, int, np.ndarray], ...]]:
        skip = n_lo % 2  # the even n_lo - 1 below an odd n_lo, left out
        halves = _parity_halves(n_lo - skip, n_hi, ints=3, masks=2)
        for evens, k, (h, sq, quarter), (even_fail, odd_fail) in halves:
            np.multiply(np.right_shift(evens, 1, out=h), h, out=sq)
            odds = np.add(evens[:k], 1, out=quarter[:k])
            odd_f = _half_products_of(odds, sq[:k], h[:k], h[:k])
            np.right_shift(np.multiply(odds, odds, out=quarter[:k]), 2, out=quarter[:k])
            np.not_equal(odd_f, quarter[:k], out=odd_fail[:k])
            even_f = _half_products_of(evens, sq)
            np.right_shift(np.multiply(evens, evens, out=quarter), 2, out=quarter)
            np.not_equal(even_f, quarter, out=even_fail)
            yield ((evens[skip:], 0, even_fail[skip:]), (evens[:k], 1, odd_fail[:k]))
            skip = 0

    return _found(violated())


class SuperadditivityScan(NamedTuple):
    """What :func:`superadditivity_scan` found, each listing in g1 order and
    holding at most ``MAX_LISTED`` entries: the violations and the ties off
    the rule as (g1, g2) rows, and the stated g2 whose pair (1, g2) does
    not tie; and how many pair differences it computed one by one."""

    violations: np.ndarray  # the first rows with a negative difference
    violations_total: int
    unexpected: np.ndarray  # the first rows with difference 0 off the rule
    missing: np.ndarray  # the first even g2 >= 16 with (1, g2) not tied
    equalities_total: int  # every row with difference 0, stated or not
    cells_scanned: int  # the pairs of the rows that no block bound cleared


def _rows(pairs: list[tuple[int, int]]) -> np.ndarray:
    return np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)


def _coarsen(b: np.ndarray, k: int, op: np.ufunc) -> np.ndarray:
    """``op`` (``np.minimum`` or ``np.maximum``) over each group of k
    consecutive entries of b, the last group short when k does not divide
    b's length: one strided copy and k - 1 strided ufunc calls."""
    out = b[::k].copy()
    for j in range(1, k):
        part = b[j::k]
        op(out[: part.size], part, out=out[: part.size])
    return out


def _uncleared_blocks(D: np.ndarray) -> list[tuple[int, int]]:
    """(a, w) of every block row of g1 >= ``WHOLE_ROWS`` that has a bound
    <= 0, in ascending order of g1: its rows are a w .. (a+1) w - 1.

    bmin[b] and bmax[b] are D's min and max over the genera of
    [b w, (b+1) w) up to g_max, the last block short.  The first band's come
    from D in one strided pass; since w doubles from band to band, each
    later band's come from the band before's, in one pairwise pass of half
    its length.  They all end with the call, so none is held while the rows
    are scanned."""
    g_max = D.shape[0] - 1
    half = g_max // 2
    found = []
    lo = WHOLE_ROWS
    bmin, bmax = _coarsen(D, lo // 8, np.minimum), _coarsen(D, lo // 8, np.maximum)
    while lo <= half:
        w = lo // 8
        pmin = bmin.copy()  # D's min over blocks b and b + 1 (block b alone for the last)
        np.minimum(bmin[:-1], bmin[1:], out=pmin[:-1])
        for a in range(8, -(-min(2 * lo, half + 1) // w)):
            last = (g_max - a * w) // w  # the block of g2 = g_max - a w
            # min over k in a..last of bound(a, k) + bmax[a]
            if (pmin[2 * a : a + last + 1] - bmax[a : last + 1]).min() <= bmax[a]:
                found.append((a, w))
        del pmin
        bmin, bmax = _coarsen(bmin, 2, np.minimum), _coarsen(bmax, 2, np.maximum)
        lo *= 2
    return found


def _uncleared_rows(D: np.ndarray) -> Iterator[int]:
    """Every g1 of the scan whose row the block bounds cannot clear, in
    ascending order: the rows g1 < ``WHOLE_ROWS``, then those of each block
    row of g1 that has a bound <= 0."""
    half = (D.shape[0] - 1) // 2
    yield from range(1, min(WHOLE_ROWS, half + 1))
    for a, w in _uncleared_blocks(D):
        yield from range(a * w, min((a + 1) * w, half + 1))


def superadditivity_scan(D: np.ndarray) -> SuperadditivityScan:
    """Scan dmax(g1+g2) - dmax(g1) - dmax(g2) over 1 <= g1 <= g2 with
    g1+g2 <= len(D)-1, where D[g] = dmax(g) (D[0] ignored).

    The superadditivity claim is that there are no violations, and that the
    equalities are exactly g1 = 1 with g2 even >= 16.  The scan checks that
    set where it finds the equalities, and returns both counts and the first
    ``MAX_LISTED`` violations, unexpected equalities and missing stated g2:
    the claim's counterexamples.  Nothing is kept per failing pair beyond
    the listings, so a broken D costs no more memory than a passing one
    beyond one row's temporaries.

    A row is exact: with g2 = g1 + j, D[g1+g2] and D[g2] are the contiguous
    slices D[2 g1 + j] and D[g1 + j], so a row is one slice difference in a
    reused buffer and one min.  A row g1 >= 2 whose min is above D[g1]
    holds no violation and no equality, and is passed over; the others take
    their violation mask and tie mask, counted and listed.  Row 1 is never
    passed over, as its stated ties must be seen: they sit at the odd
    j >= 15, one strided slice of its tie mask, which gives the missing g2
    and is then cleared, so that what ties in row 1 outside it, and every
    tie of a later row, is unexpected.

    Most rows are never formed.  The rows g1 < ``WHOLE_ROWS`` are; past
    them, the band of g1 in [lo, 2 lo) is cut into blocks of w = lo / 8
    genera, and so is g2.  Let bmin[b] and bmax[b] be D's min and max over
    [b w, (b+1) w), the last block cut short at g_max.  For g1 in block a
    and g2 in block k, g1 + g2 lies in [(a+k) w, (a+k+2) w - 2], inside
    blocks a+k and a+k+1, so D[g1+g2] - D[g1] - D[g2] >=
    min(bmin[a+k], bmin[a+k+1]) - bmax[a] - bmax[k] =: bound(a, k), with
    bmin[a+k] alone where block a+k+1 lies past g_max.  This assumes nothing of D, not even that it
    is monotone; the blocks also hold pairs outside the triangle, which can
    only lower a bound.  A block row a whose bounds are all > 0 over
    k = a .. (g_max - a w) / w holds no violation and no equality, and is
    cleared; one with any bound <= 0 has its w rows scanned exactly, in g1
    order, so the listing order, the caps and the totals are those of a
    row-by-row scan.  On dmax the slack grows like g1 g2 / 8, so every block
    row clears, and the scan forms 31 rows and one vector of bounds per
    block row.  A bound is a value of D less two others, so it stays within
    3 ``MAX_SAFE_D``, as does the row intermediate D[g1+g2] - D[g2] - D[g1].
    """
    D = np.ascontiguousarray(D, dtype=np.int64)
    if D.size:
        _require_at_most("|D[g]|", max(-int(D.min()), int(D.max())), MAX_SAFE_D)
    g_max = D.shape[0] - 1
    diff = np.empty(max(g_max, 0), dtype=np.int64)
    violations: list[tuple[int, int]] = []
    unexpected: list[tuple[int, int]] = []
    missing = np.empty(0, dtype=np.int64)
    violations_total = equalities_total = cells = 0
    for g1 in _uncleared_rows(D):
        m = g_max - 2 * g1 + 1  # g2 in g1..g_max-g1
        cells += m
        row = np.subtract(D[2 * g1 :], D[g1 : g1 + m], out=diff[:m])
        if g1 > 1 and row.min() > D[g1]:
            continue
        row -= D[g1]
        mask = row < 0
        n, js = _listing(mask, MAX_LISTED - len(violations))
        violations += [(g1, g1 + j) for j in js]
        violations_total += n
        tie = np.equal(row, 0, out=mask)
        equalities_total += int(np.count_nonzero(tie))
        if g1 == 1:  # the stated ties g2 = 1 + j, even >= 16: odd j >= 15
            missing = np.array(_listing(tie[15::2], MAX_LISTED, unset=True)[1], dtype=np.int64) * 2 + 16
            tie[15::2] = False
        unexpected += [(g1, g1 + j) for j in _listing(tie, MAX_LISTED - len(unexpected))[1]]
    return SuperadditivityScan(
        violations=_rows(violations),
        violations_total=violations_total,
        unexpected=_rows(unexpected),
        missing=missing,
        equalities_total=equalities_total,
        cells_scanned=cells,
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


def mdsp_table(bi: np.ndarray) -> list[int]:
    """Superadditive closure of a best-pair table, in Python ints: M[0] = 0
    and M[g] = max(bi[g], max_{0<a<=g/2} M[a] + M[g-a]).

    The splits a = 1, 2, ... of g stop at the first a with a^2 + (g-a)^2 + 2C
    < 16 best, best the largest value so far, C = max_{x<g} (16 M[x] - x^2).
    Exact, reading only the table: 16 M[x] <= C + x^2 for x < g, so every
    later split has 16 (M[a'] + M[g-a']) <= a'^2 + (g-a')^2 + 2C, a bound that
    falls as a' grows to g/2.  The real table stops each genus within 4
    splits; one far from g^2/16 growth (all zeros, say) runs the whole scan.
    """
    M, C = [0], 0
    for lo in range(1, len(bi), 1024):  # bi as Python ints, about 40 kB at a time
        for g, best in enumerate(bi[lo : lo + 1024].tolist(), lo):
            for a in range(1, g // 2 + 1):
                if a * a + (g - a) ** 2 + 2 * C < 16 * best:
                    break
                if (split := M[a] + M[g - a]) > best:
                    best = split
            M.append(best)
            if (c := 16 * best - g * g) > C:
                C = c
    return M


def _two_element_efficient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The closed two-element criterion (a-2)(b-2) < 4, elementwise; a
    function of its own, so that a test can inject a fault into it."""
    return (a - 2) * (b - 2) < 4


def pair_efficiency_mismatches(a_max: int, b_max: int) -> Found:
    """(a, b) with 2 <= a <= a_max and a <= b <= b_max where 'ab < 2(a+b)'
    and '(a-2)(b-2) < 4' disagree (expected: none): their count and the
    first ``MAX_LISTED`` of them, ascending, as rows of ``listed``.

    Rows of a are taken in blocks of about ``PAIR_BLOCK`` cells, each block
    one broadcast over a rectangle with the cells b < a masked out, so the
    default 200 x 200 window takes three numpy passes of about 128 kB
    per array.
    """
    if a_max < 2 or b_max < a_max:
        raise ValueError(f"need 2 <= a_max <= b_max (got {a_max}, {b_max})")
    _require_at_most("b_max", b_max, MAX_SAFE_PAIR_B)
    total, listed = 0, []
    for a_lo, a in _row_blocks(2, a_max, b_max - 1):
        b = np.arange(a_lo, b_max + 1, dtype=np.int64)[None, :]
        failing = (a * b < 2 * (a + b)) != _two_element_efficient(a, b)
        failing &= b >= a
        n, at = _listing(failing, MAX_LISTED - len(listed))
        total += n
        listed += [(a_lo + i, a_lo + j) for i, j in (divmod(x, b.size) for x in at)]
    return Found(total, _rows(listed))
