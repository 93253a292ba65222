import tracemalloc

import numpy as np
import pytest

from agdim import kernels
from agdim.arith import dmax, dmax_piecewise, half_product
from agdim.pairs import best_indecomposable
from agdim.report import MAX_LISTED


def python_mdsp(bi):
    M = [0] * len(bi)
    for g in range(1, len(bi)):
        best = bi[g]
        for g1 in range(1, g // 2 + 1):
            best = max(best, M[g1] + M[g - g1])
        M[g] = best
    return M


def numpy_mdsp(bi):
    """The closure by one numpy split scan per genus, quadratic in len(bi)."""
    M = np.zeros(len(bi), dtype=np.int64)
    for g in range(1, len(bi)):
        best = bi[g]
        h = g // 2
        if h >= 1:
            splits = M[1 : h + 1] + M[g - 1 : g - h - 1 : -1]
            best = max(best, int(splits.max()))
        M[g] = best
    return M.tolist()


def rows(arr):
    return [tuple(int(v) for v in row) for row in arr.tolist()]


def found(result):
    """A chunked kernel's result as (count, listed values)."""
    assert result.listed.dtype == np.int64 and len(result.listed) <= MAX_LISTED
    return result.total, result.listed.tolist()


class CountingNumpy:
    """numpy with every call of one of its functions or ufuncs counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


def brute_scan(D):
    """Every violating and every equal pair of D, in Python integers."""
    g_max = len(D) - 1
    want_viol, want_eqs = [], []
    for g1 in range(1, g_max // 2 + 1):
        for g2 in range(g1, g_max - g1 + 1):
            diff = int(D[g1 + g2]) - int(D[g1]) - int(D[g2])
            if diff < 0:
                want_viol.append((g1, g2))
            elif diff == 0:
                want_eqs.append((g1, g2))
    return want_viol, want_eqs


def rule_split(equalities, g_max):
    """The first MAX_LISTED pairs off the rule {(1, even g2 >= 16)} of a
    list of tied pairs in g1 order, and the first MAX_LISTED stated g2 with
    (1, g2) not in it, for a table of genera up to g_max."""
    tied = set(equalities)
    unexpected = [(g1, g2) for g1, g2 in equalities if g1 > 1 or g2 < 16 or g2 % 2]
    missing = [g2 for g2 in range(16, g_max, 2) if (1, g2) not in tied]
    return unexpected[:MAX_LISTED], missing[:MAX_LISTED]


def flat_scan(D):
    """The superadditivity scan with every row formed, one numpy row per g1:
    the kernel's row loop before block bounds cleared most rows, kept as the
    oracle of the bounded scan.  It returns what the kernel does, with every
    pair of the triangle counted as scanned; its tie list holds every tie
    of row 1 and the first MAX_LISTED of the later rows, which is all that
    the rule's split reads."""
    D = np.asarray(D, dtype=np.int64)
    g_max = len(D) - 1
    violations, first_row, others = [], [], []
    violations_total = equalities_total = cells = 0
    for g1 in range(1, g_max // 2 + 1):
        row = D[2 * g1 :] - D[g1 : g_max - g1 + 1] - D[g1]  # g2 = g1 + j
        cells += row.size
        below, equal = np.flatnonzero(row < 0) + g1, np.flatnonzero(row == 0) + g1
        violations_total += below.size
        equalities_total += equal.size
        violations += [(g1, g2) for g2 in below.tolist()][: MAX_LISTED - len(violations)]
        ties = [(g1, g2) for g2 in equal.tolist()]
        if g1 == 1:
            first_row = ties
        else:
            others += ties[: MAX_LISTED - len(others)]
    unexpected, missing = rule_split(first_row + others, g_max)
    return kernels.SuperadditivityScan(
        violations=np.array(violations, dtype=np.int64).reshape(-1, 2),
        violations_total=violations_total,
        unexpected=np.array(unexpected, dtype=np.int64).reshape(-1, 2),
        missing=np.array(missing, dtype=np.int64),
        equalities_total=equalities_total,
        cells_scanned=cells,
    )


def assert_same_scan(D):
    """The bounded scan of D against the flat one: every total and listing;
    return the bounded scan."""
    got, want = kernels.superadditivity_scan(D), flat_scan(D)
    for name in ("violations", "unexpected", "missing"):
        assert getattr(got, name).dtype == np.int64
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    assert (got.violations_total, got.equalities_total) == (want.violations_total, want.equalities_total)
    assert got.cells_scanned <= want.cells_scanned
    return got


def block_extremes(D, w):
    """D's minima and maxima over the blocks [b w, (b+1) w), the tail block
    padded with +-MAX_SAFE_D, and one block of padding past it: one
    reshape per band, as the kernel built them before it halved each band's
    from the one before, kept as the oracle of the halving."""
    g_max = D.shape[0] - 1
    full = (g_max + 1) // w
    bmin = np.full(g_max // w + 2, kernels.MAX_SAFE_D, dtype=np.int64)
    bmax = np.full(g_max // w + 2, -kernels.MAX_SAFE_D, dtype=np.int64)
    blocks = D[: full * w].reshape(full, w)
    blocks.min(1, out=bmin[:full])
    blocks.max(1, out=bmax[:full])
    if full * w <= g_max:
        bmin[full], bmax[full] = D[full * w :].min(), D[full * w :].max()
    return bmin, bmax


def dmax_table(g_max):
    D = np.zeros(g_max + 1, dtype=np.int64)
    D[1:] = kernels.dmax_values(np.arange(1, g_max + 1, dtype=np.int64))
    return D


def assert_scan_matches(D, want_viol, want_eqs):
    """The superadditivity scan of D against every violating and equal row:
    the counts, the first MAX_LISTED violations, and the first MAX_LISTED
    ties off the rule and stated g2 not tied."""
    scan = kernels.superadditivity_scan(np.asarray(D, dtype=np.int64))
    unexpected, missing = rule_split(want_eqs, len(D) - 1)
    for listed in (scan.violations, scan.unexpected):
        assert listed.dtype == np.int64 and listed.shape[1:] == (2,)
    assert scan.missing.dtype == np.int64 and scan.missing.ndim == 1
    assert rows(scan.violations) == want_viol[:MAX_LISTED]
    assert scan.violations_total == len(want_viol)
    assert rows(scan.unexpected) == unexpected
    assert scan.missing.tolist() == missing
    assert scan.equalities_total == len(want_eqs)


class TestBackendSelection:
    def test_backend_reported(self):
        assert kernels.BACKEND == "numpy"


class TestAgainstScalars:
    def test_dmax_values_vs_scalar(self):
        gs = np.array([1, 2, 3, 15, 16, 17, 18, 999, 123456], dtype=np.int64)
        assert [int(v) for v in kernels.dmax_values(gs)] == [dmax(int(g)) for g in gs]

    def test_best_indec_vs_scalar(self):
        # 4096 = 64^2 and 4097 are the two sides of the isqrt split; every
        # g_max <= 150 covers the small tables where one loop is empty.
        oracle = [0] + [best_indecomposable(g) for g in range(1, 4098)]
        for g_max in [*range(151), 4096, 4097]:
            assert kernels.best_indec_table(g_max).tolist() == oracle[: g_max + 1], g_max

    def test_mdsp_vs_pure_python(self):
        bi = [int(v) for v in kernels.best_indec_table(300)]
        assert [int(v) for v in kernels.mdsp_table(np.array(bi, dtype=np.int64))] == python_mdsp(bi)

    @pytest.mark.parametrize("shape", ["real-plus-noise", "zeros", "linear", "spike"])
    def test_mdsp_cutoff_vs_pure_python(self, shape):
        # The split loop stops at once on the real table, late on a noisy
        # one, and never on tables far from quadratic growth.
        rng = np.random.default_rng(26)
        real = kernels.best_indec_table(300)
        bi = {
            "real-plus-noise": real + rng.integers(0, 4, size=301),
            "zeros": np.zeros(301, dtype=np.int64),
            "linear": np.arange(301, dtype=np.int64),
            "spike": np.where(np.arange(301) == 3, 10**6, real),
        }[shape]
        for g_max in (0, 1, 2, 17, 300):
            M = kernels.mdsp_table(bi[: g_max + 1])
            assert M == python_mdsp(bi[: g_max + 1].tolist())
            assert all(type(v) is int for v in M)

    def test_mdsp_vs_numpy_scan(self):
        bi = kernels.best_indec_table(40_000)
        M = kernels.mdsp_table(bi)
        assert M == numpy_mdsp(bi) and all(type(v) is int for v in M)

    def test_piecewise_vs_scalar(self):
        oracle = [g for g in range(1, 5001) if dmax(g) != dmax_piecewise(g)]
        assert found(kernels.piecewise_mismatches(1, 5000)) == (len(oracle), oracle)

    def test_f_bounds_vs_scalar(self):
        oracle = [
            n for n in range(2, 5001) if not n * n - 1 <= 4 * half_product(n) <= n * n
        ]
        assert found(kernels.f_bound_violations(2, 5000)) == (len(oracle), oracle)

    def test_superadditivity_vs_scalar(self):
        g_max = 800
        D = np.zeros(g_max + 1, dtype=np.int64)
        D[1:] = kernels.dmax_values(np.arange(1, g_max + 1, dtype=np.int64))
        want_viol, want_eqs = [], []
        for g1 in range(1, 401):
            for g2 in range(g1, g_max - g1 + 1):
                diff = dmax(g1 + g2) - dmax(g1) - dmax(g2)
                if diff < 0:
                    want_viol.append((g1, g2))
                elif diff == 0:
                    want_eqs.append((g1, g2))
        assert want_viol == []
        assert want_eqs == [(1, g2) for g2 in range(16, g_max, 2)]
        assert_scan_matches(D, want_viol, want_eqs)

    def test_superadditivity_random_vs_brute_force(self):
        rng = np.random.default_rng(20240409)
        for g_max in (0, 1, 2, 3, 9, 10, 77, 160):
            D = rng.integers(0, 40, size=g_max + 1, dtype=np.int64)
            want_viol, want_eqs = brute_scan(D)
            assert_scan_matches(D, want_viol, want_eqs)
            if g_max >= 77:
                assert want_viol and want_eqs  # both kinds of row are exercised
            if g_max == 160:  # both capped lists are cut
                assert len(want_viol) > MAX_LISTED
                assert sum(1 for g1, _ in want_eqs if g1 > 1) > MAX_LISTED
        # D[g] = g^2 gives every pair the difference 2 g1 g2 > 0.  Lowering
        # D[5 + b] sets the pair (5, b) to d: at the row's first cell, inside
        # it and at its last cell.  Row 5's min is then D[5] - 1, D[5] exactly
        # or D[5] + 1, and the pair is its only violation or equality, or the
        # row has none.
        for b in (5, 17, 35):
            for d in (-1, 0, 1):
                D = np.arange(41, dtype=np.int64) ** 2
                D[5 + b] -= 2 * 5 * b - d
                want_viol, want_eqs = brute_scan(D)
                assert [p for p in want_viol + want_eqs if p[0] == 5] == ([(5, b)] if d <= 0 else [])
                assert_scan_matches(D, want_viol, want_eqs)

    def test_pair_efficiency_vs_scalar(self):
        for n in (60, 200):
            oracle = [
                (a, b)
                for a in range(2, n + 1)
                for b in range(a, n + 1)
                if (a * b < 2 * (a + b)) != ((a - 2) * (b - 2) < 4)
            ]
            result = kernels.pair_efficiency_mismatches(n, n)
            assert result.total == 0 and rows(result.listed) == oracle == []

    @pytest.mark.parametrize("block", [1, 97, 1 << 16])
    def test_pair_efficiency_blocks(self, monkeypatch, block):
        # One row per block, blocks that split the rows unevenly, one block;
        # with no fault, then with the closed criterion negated at every cell
        # of the triangle or at the cells with 7 | a + b.  The kernel counts
        # every failing cell and lists the first MAX_LISTED, ascending.
        monkeypatch.setattr(kernels, "PAIR_BLOCK", block)
        real = kernels._two_element_efficient
        for every in (None, 1, 7):
            if every:
                monkeypatch.setattr(
                    kernels, "_two_element_efficient", lambda a, b: real(a, b) ^ ((a + b) % every == 0)
                )
            for a_max, b_max in ((2, 2), (2, 9), (3, 3), (7, 50), (60, 60)):
                cells = [
                    (a, b)
                    for a in range(2, a_max + 1)
                    for b in range(a, b_max + 1)
                    if every and (a + b) % every == 0
                ]
                result = kernels.pair_efficiency_mismatches(a_max, b_max)
                assert result.total == len(cells)
                assert result.listed.dtype == np.int64 and result.listed.shape[1:] == (2,)
                assert rows(result.listed) == cells[:MAX_LISTED]


# chunked kernel -> (the per-half helper a fault is injected into, what the
# helper's first argument adds to reach the value checked, and whether value
# v is reported by the Python-int scalars when bump is added to that
# helper's value)
CHUNKED = {
    "piecewise_mismatches": ("_max_form", 1, lambda g, bump: dmax(g) + bump != dmax_piecewise(g)),
    "f_bound_violations": (
        "_half_products_of",
        0,
        lambda n, bump: not n * n - 1 <= 4 * (half_product(n) + bump) <= n * n,
    ),
}


class TestBlockBounds:
    """The block-bounded superadditivity scan against the flat row scan.
    Rows g1 < 32 are formed whole; the band of g1 in [lo, 2 lo) has blocks
    of lo / 8 genera, so 31, 32, 63, 64, 65 and 2^k +- 1 are band edges."""

    EDGES = (31, 32, 33, 63, 64, 65, 66, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 2047, 2049)

    def test_random_tables(self):
        # Random, negative and descending tables fail every block row's
        # bounds; dmax with deep dips at 1% of genera fails some, and dmax
        # with noise of +-8 none.
        rng = np.random.default_rng(27)
        sizes = [*self.EDGES, *rng.integers(34, 3000, size=6).tolist()]
        for g_max in sizes:
            real = dmax_table(g_max)
            for D in (
                rng.integers(-50, 50, size=g_max + 1),
                rng.integers(0, 10**6, size=g_max + 1),
                real + rng.integers(-8, 9, size=g_max + 1),
                real - 20 * (rng.random(g_max + 1) < 0.01) * np.arange(g_max + 1),
                -np.arange(g_max + 1, dtype=np.int64) ** 2,
            ):
                assert_same_scan(D)

    def test_faults_at_block_edges(self):
        # One genus of dmax moved at each edge of a block of the first bands,
        # and in the tail block: lowered so that the pairs summing to it
        # fail, or raised so that the pairs it belongs to do.  Every fault
        # also lands where a bound must see it, at g1 >= 32.
        # Blocks (w, b) hold b w .. (b+1) w - 1: the first and last g1 block
        # of each band, and g2 blocks and sums past them.
        blocks = [(4, 8), (4, 9), (4, 16), (8, 8), (8, 16), (8, 23), (16, 8), (16, 31), (32, 8), (32, 31)]
        for g_max, edges in (
            (1025, {b * w + e for w, b in blocks for e in (-1, 0)} | {1023, 1024, 1025}),
            (2047, {2045, 2046, 2047}),
        ):
            real = dmax_table(g_max)
            for g in sorted(edges):
                for delta in (-real[g], -1, 1, real[g] // 8):
                    D = real.copy()
                    D[g] += delta
                    assert_same_scan(D)

    def test_spike_and_dip_in_neighbouring_blocks(self):
        # g1 and g2 at the last genus of their blocks a and k put g1 + g2 in
        # block a+k+1.  D[g2] raised and D[g1+g2] lowered by just over half
        # the pair's slack break that pair, while the bounds of block row a
        # that read only block a+k, or only block a+k+1, stay positive.
        g_max = 1025
        for w, a, k in ((4, 8, 8), (4, 15, 20), (8, 9, 30), (16, 12, 14), (32, 15, 15)):
            g1, g2 = (a + 1) * w - 1, (k + 1) * w - 1
            D = dmax_table(g_max)
            s = (D[g1 + g2] - D[g1] - D[g2]) // 2 + 1
            D[g2] += s
            D[g1 + g2] -= s
            assert D[g1 + g2] - D[g1] - D[g2] < 0
            assert_same_scan(D)

    def test_spike_and_dip_reaching_the_tail_block(self):
        # As above, with g1 at the end of block a and g2 = g_max - g1 in
        # block k = last - 1, where last is the block of g_max - a w: the
        # pair sums to g_max, in the short tail block a+k+1, whose min only
        # bound(a, k) and bound(a, last) read.
        g_max = 1025
        for w, a in ((4, 8), (4, 15), (8, 9), (16, 12), (32, 15)):
            g1 = (a + 1) * w - 1
            g2 = g_max - g1
            assert g2 // w == (g_max - a * w) // w - 1 and g_max // w == a + g2 // w + 1
            D = dmax_table(g_max)
            s = (D[g_max] - D[g1] - D[g2]) // 2 + 1
            D[g2] += s
            D[g_max] -= s
            assert D[g_max] - D[g1] - D[g2] < 0
            assert_same_scan(D)

    def test_tables_at_the_kernel_ceiling(self):
        # Every value within one unit of +-MAX_SAFE_D: each bound and row
        # intermediate stays within 3 MAX_SAFE_D.
        top = kernels.MAX_SAFE_D
        rng = np.random.default_rng(2027)
        for g_max in (63, 64, 65, 130, 257):
            for D in (
                rng.choice([top, top - 1, -top, 1 - top], size=g_max + 1),
                np.full(g_max + 1, top) - rng.integers(0, 2, size=g_max + 1),
                np.full(g_max + 1, -top) + rng.integers(0, 2, size=g_max + 1),
            ):
                assert_same_scan(D)

    def test_band_extremes_match_per_band_reshape(self):
        # The first band's blocks of 4 come from D, each later band's from
        # the band before's, pairwise; the kernel's blocks end at g_max,
        # where the oracle pads the tail block and adds one of padding.
        # g_max + 1 on and off a multiple of each w, down to one block.
        rng = np.random.default_rng(28)
        top = kernels.MAX_SAFE_D
        for size in (1, 3, 4, 5, 63, 64, 65, 127, 128, 129, 1000, 1023, 1024, 1025, 4097):
            for D in (
                rng.integers(-10**6, 10**6, size=size),
                dmax_table(size - 1),
                -np.arange(size, dtype=np.int64) ** 2,
                rng.choice([top, -top], size=size),
            ):
                w = kernels.WHOLE_ROWS // 8
                bmin, bmax = kernels._coarsen(D, w, np.minimum), kernels._coarsen(D, w, np.maximum)
                while True:
                    want_min, want_max = block_extremes(D, w)
                    assert bmin.tolist() + [top] == want_min.tolist(), (size, w)
                    assert bmax.tolist() + [-top] == want_max.tolist(), (size, w)
                    if w >= size:
                        break
                    bmin, bmax = kernels._coarsen(bmin, 2, np.minimum), kernels._coarsen(bmax, 2, np.maximum)
                    w *= 2

    def test_scans_few_pairs_of_dmax(self):
        # A passing table forms its 31 whole rows and no other; a regression
        # to a row per g1 scans every pair.
        g_max = 100_000
        scan = kernels.superadditivity_scan(dmax_table(g_max))
        assert scan.violations_total == 0 and scan.equalities_total == g_max // 2 - 8
        assert scan.cells_scanned == sum(g_max - 2 * g1 + 1 for g1 in range(1, 32))
        assert scan.cells_scanned < g_max * g_max // 4 // 100

    def test_every_row_scanned_where_no_bound_clears(self):
        D = np.zeros(2049, dtype=np.int64)
        assert assert_same_scan(D).cells_scanned == flat_scan(D).cells_scanned == 1024 * 1024


class TestChunkBoundaries:
    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("lo", [2, 3, 16, 17, 1_000_000, 1_000_001])
    @pytest.mark.parametrize("kernel", list(CHUNKED))
    def test_against_scalars(self, monkeypatch, kernel, lo, faulty):
        # Ranges that end just inside, at and just past a stretch of CHUNK
        # values, the unit of both kernels' parity walk, and of two, and one
        # that ends mid-way through its third; lo = 2 and 3 cross the
        # g = 15/16/17 branch switch.  From an even lo (2, 16, 1_000_000)
        # the walk starts at lo, from an odd one (3, 17, 1_000_001) at
        # lo - 1, which it leaves out.  With the per-half helper's value
        # raised at v = 3 and lowered at v = 5 (mod 7), the reported values
        # show each stretch's offset, order and end, and both sides of each
        # comparison: every value with the listing cap lifted, the first
        # MAX_LISTED with it in place.
        helper, shift, reported = CHUNKED[kernel]

        def bump(v):
            return ((v % 7 == 3) * 1 - (v % 7 == 5) * 1) if faulty else 0

        real = getattr(kernels, helper)
        monkeypatch.setattr(kernels, helper, lambda xs, *rest: real(xs, *rest) + bump(xs + shift))
        chunk = kernels.CHUNK
        oracle = [v for v in range(lo, lo + 2 * chunk + 3) if reported(v, bump(v))]
        assert bool(oracle) == faulty
        for length in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3, *(2 * chunk + e for e in (-1, 0, 1))):
            hi = lo + length - 1
            want = [v for v in oracle if v <= hi]
            assert found(getattr(kernels, kernel)(lo, hi)) == (len(want), want[:MAX_LISTED]), length
            with monkeypatch.context() as mp:
                mp.setattr(kernels, "MAX_LISTED", len(oracle))
                listed = getattr(kernels, kernel)(lo, hi).listed.tolist()
            assert listed == want, length

    @pytest.mark.parametrize("chunk", [3, 7])
    @pytest.mark.parametrize("kernel", list(CHUNKED))
    def test_short_ranges_against_scalars(self, monkeypatch, kernel, chunk):
        # Stretches of CHUNK // 2 even values for an odd CHUNK, and every
        # range from lo in 1..18 (2..18 for F), across the g = 15/16/17
        # switch, to each hi in lo..lo + 40, ending on either parity: with
        # the per-half helper's value raised at v = 3 and lowered at v = 5
        # (mod 7), the listing is every value the scalars report, ascending.
        helper, shift, reported = CHUNKED[kernel]

        def bump(v):
            return (v % 7 == 3) * 1 - (v % 7 == 5) * 1

        real = getattr(kernels, helper)
        monkeypatch.setattr(kernels, helper, lambda xs, *rest: real(xs, *rest) + bump(xs + shift))
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        for lo in range(1 if kernel == "piecewise_mismatches" else 2, 19):
            for hi in range(lo, lo + 41):
                want = [v for v in range(lo, hi + 1) if reported(v, bump(v))]
                assert found(getattr(kernels, kernel)(lo, hi)) == (len(want), want), (lo, hi)

    @pytest.mark.parametrize(
        "bump",
        [
            lambda g: 0,
            lambda g: (g % 3 == 0) * 1 - (g % 3 == 1) * 1,
            lambda g: 1 - 2 * (g % 2),
        ],
        ids=["none", "mod3", "every"],
    )
    def test_piecewise_low_genera(self, monkeypatch, bump):
        # Ranges inside the g - 1 branch 1..15, single genera at the switch
        # to the parity walk, and short ranges across it, where one half of
        # a stretch can be empty: with the max form raised or lowered at
        # every third genus, or at every genus, the listing is every genus
        # the scalars report, ascending.
        real = kernels._max_form
        monkeypatch.setattr(kernels, "_max_form", lambda below, q, out: real(below, q, out) + bump(below + 1))
        ranges = [(1, 1), (1, 15), (3, 9), (14, 15), (15, 15), (16, 16), (17, 17)]
        ranges += [(15, 16), (15, 17), (16, 17), (17, 18), (1, 40)]
        for lo, hi in ranges:
            want = [g for g in range(lo, hi + 1) if dmax(g) + bump(g) != dmax_piecewise(g)]
            assert found(kernels.piecewise_mismatches(lo, hi)) == (len(want), want), (lo, hi)


class TestWalks:
    """The walks every bulk scan takes: chunks and parity stretches of
    ``CHUNK`` values, and blocks of about ``PAIR_BLOCK`` cells of rows."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 8])
    def test_parity_halves_tile_range(self, monkeypatch, chunk):
        # Every value once, in order, even and odd alternating, each odd
        # value E + 1 of an even E; stretches of CHUNK // 2 even values (one
        # at least; CHUNK - 1 values for an odd CHUNK), the last one short
        # and ending on either parity, its odd count one less where it ends
        # on an even value; buffers of the even values' length.
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        pairs = max(1, chunk // 2)
        top = 1_000_000 + 3 * chunk
        for lo, hi in ((0, 0), (2, 3), (16, 16), (16, 40), (16, 41), (1_000_000, top), (1_000_000, top + 1)):
            seen, sizes = [], []
            for evens, k, ints, masks in kernels._parity_halves(lo, hi, ints=3, masks=2):
                assert evens.size - k in (0, 1)
                assert ints.shape == (3, evens.size) and ints.dtype == np.int64
                assert masks.shape == (2, evens.size) and masks.dtype == bool
                odds = (evens[:k] + 1).tolist()
                seen += [v for pair in zip(evens.tolist(), odds + [None]) for v in pair if v is not None]
                sizes.append(evens.size)
            assert seen == list(range(lo, hi + 1)), (lo, hi)
            assert sizes[:-1] == [pairs] * (len(sizes) - 1) and 1 <= sizes[-1] <= pairs

    @pytest.mark.parametrize("fill", [True, False])
    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_dmax_in_chunk_buffers(self, monkeypatch, chunk, fill):
        # out and the bool scratch are dirtied before each call, so a step
        # that left a stale value where g - 1 does not win would show.
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        got = []
        for start, gs, (out,), (scratch,) in kernels._chunks(1, 5000, ints=1, masks=1):
            out[:], scratch[:] = -1, fill
            assert kernels._dmax(gs, out, scratch) is out
            got += out.tolist()
        assert got == [dmax(g) for g in range(1, 5001)]
        top = kernels.MAX_SAFE_G
        gs = np.arange(top - 20, top + 1, dtype=np.int64)
        out, scratch = np.full(gs.size, -1, dtype=np.int64), np.full(gs.size, fill)
        assert kernels._dmax(gs, out, scratch).tolist() == [dmax(g) for g in range(top - 20, top + 1)]

    @pytest.mark.parametrize(
        "kernel, lo, buffer_bytes",
        [
            # the even values, three int64 buffers and two masks per value
            # pair: 17.06 x CHUNK measured (21 while the odd values had an
            # array of their own, 34 while the halves were CHUNK long)
            ("piecewise_mismatches", 1, 17 * kernels.CHUNK),
            # the same: 17.06 x CHUNK measured (21 with the odd values'
            # array, 25 for chunks of the values, two int64 buffers and one
            # mask)
            ("f_bound_violations", 2, 17 * kernels.CHUNK),
        ],
        ids=["piecewise", "f_bounds"],
    )
    @pytest.mark.parametrize("faulty", [False, True], ids=["passing", "faulty"])
    def test_call_memory_does_not_grow_with_range(self, monkeypatch, kernel, lo, buffer_bytes, faulty):
        # A call's buffers are allocated once and sized by CHUNK, not by its
        # range: its tracemalloc peak is the same at 4 and 40 chunks, and
        # its buffers plus a few kB of small arrays.  With the per-half
        # helper's value raised in place at every value, every value fails,
        # and the listing holds the call to the passing bound: listing the
        # first MAX_LISTED of a whole half took 50.1 and 33.0 x CHUNK.
        helper = CHUNKED[kernel][0]
        real = getattr(kernels, helper)

        def raised(xs, *rest):
            value = real(xs, *rest)
            value += 1
            return value

        if faulty:
            monkeypatch.setattr(kernels, helper, raised)
        peaks = []
        for n in (4 * kernels.CHUNK, 40 * kernels.CHUNK):
            tracemalloc.start()
            try:
                result = getattr(kernels, kernel)(lo, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.total == (n - lo + 1 if faulty else 0)
            assert result.listed.tolist() == (list(range(lo, lo + MAX_LISTED)) if faulty else [])
        assert abs(peaks[1] - peaks[0]) < 4096, peaks
        assert buffer_bytes <= peaks[1] < buffer_bytes + 16384, peaks

    @pytest.mark.parametrize(
        "kernel, lo, per_stretch",
        [
            # the branch (2) and the square part (3) over the even values,
            # the odd half's max form (1), the even half's g - 1 and max
            # form (2), and per half a not_equal and a count
            ("piecewise_mismatches", 16, 13),
            # h and h h over the even values (2), the odd values (1) and
            # their F (1), and per half n * n >> 2 (2), a not_equal and a
            # count
            ("f_bound_violations", 2, 13),
        ],
    )
    def test_numpy_calls_per_stretch(self, monkeypatch, kernel, lo, per_stretch):
        # Each stretch of CHUNK values also steps the even values on (1).
        # The calls of 4 more stretches, counted through a proxy for
        # kernels.np, pin the kernel's work: a pass added back fails here.
        counts = []
        for stretches in (4, 8):
            proxy = CountingNumpy()
            monkeypatch.setattr(kernels, "np", proxy)
            assert getattr(kernels, kernel)(lo, lo + stretches * kernels.CHUNK - 1).total == 0
            monkeypatch.setattr(kernels, "np", np)
            counts.append(proxy.calls)
        assert counts[1] - counts[0] == 4 * per_stretch, counts

    @pytest.mark.parametrize("unset", [False, True], ids=["set", "unset"])
    def test_listing_memory_does_not_grow_with_its_mask(self, unset):
        # The first MAX_LISTED set (or unset) entries of a mask are found one
        # at a time, so a mask that fails everywhere allocates no array of
        # its length: np.flatnonzero of the whole mask took 8.0 MB at 1e6
        # entries.  A strided view, as lemma-dmax's stated ties are, is
        # searched a window at a time and never negated.
        size = 1_000_000
        masks = {"all set": np.ones(size, dtype=bool), "all unset": np.zeros(size, dtype=bool)}
        masks["sparse"] = np.arange(size) % 9973 == 5
        masks["late"] = np.arange(size) >= size - 7
        masks["strided"] = np.arange(2 * size) % 4 == 1
        for name, mask in masks.items():
            view = mask[1::2] if name == "strided" else mask
            want = np.flatnonzero(view != unset).tolist()
            tracemalloc.start()
            try:
                total, listed = kernels._listing(view, MAX_LISTED, unset)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (total, listed) == (len(want), want[:MAX_LISTED]), name
            assert peak < 32768, (name, peak)

    def test_listing_against_flatnonzero(self):
        # Random masks around the window's edges, flat, strided and 2-D, with
        # room for none, some, MAX_LISTED and more than the count.
        rng = np.random.default_rng(37)
        window = kernels.LIST_WINDOW
        for size in (0, 1, window - 1, window + 1, 2 * window + 7):
            for density in (0.0, 0.0005, 0.5, 1.0):
                mask = rng.random(2 * size) < density
                for view in (mask[:size], mask[1::2], mask[: size // 3 * 6].reshape(-1, 3)):
                    for unset in (False, True):
                        want = np.flatnonzero(view != unset)
                        count = np.count_nonzero(view != unset)
                        for room in (0, 1, MAX_LISTED, view.size + 5):
                            total, listed = kernels._listing(view, room, unset)
                            assert total == count
                            assert listed == want[:room].tolist(), (size, density, view.shape, unset, room)

    @pytest.mark.parametrize("block", [1, 7, 300])
    def test_row_blocks_tile_rows(self, monkeypatch, block):
        # Widths below, at and above the block: every row once, in order,
        # in blocks of max(1, PAIR_BLOCK // width) rows, the last one short.
        monkeypatch.setattr(kernels, "PAIR_BLOCK", block)
        for lo, hi in ((1, 1), (2, 9), (4, 1000)):
            for width in sorted({1, 2, 3, max(1, block - 1), block, block + 1, 5 * block}):
                rows = max(1, block // width)
                seen, sizes = [], []
                for start, column in kernels._row_blocks(lo, hi, width):
                    assert column.dtype == np.int64 and column.shape == (column.size, 1)
                    assert column[0, 0] == start
                    seen += column[:, 0].tolist()
                    sizes.append(column.size)
                assert seen == list(range(lo, hi + 1)), (lo, hi, width)
                assert sizes[:-1] == [rows] * (len(sizes) - 1) and 1 <= sizes[-1] <= rows


class TestGuards:
    def test_overflow_ceilings(self, monkeypatch):
        top = kernels.MAX_SAFE_G
        window = np.arange(top - 20, top + 1, dtype=np.int64)
        assert kernels.dmax_values(window).tolist() == [dmax(g) for g in range(top - 20, top + 1)]
        with pytest.raises(OverflowError):
            kernels.f_bound_violations(2, kernels.MAX_SAFE_N + 1)
        with pytest.raises(OverflowError):
            kernels.dmax_values(np.array([top + 1], dtype=np.int64))
        # Without numpy, any allocation would raise AttributeError instead.
        monkeypatch.setattr(kernels, "np", None)
        with pytest.raises(OverflowError):
            kernels.best_indec_table(top + 1)

    def test_superadditivity_ceiling_exact(self):
        # 3 max|D| bounds D[g1+g2] - D[g2] - D[g1].  At the ceiling the scan
        # lists -3 top at (1, 1) and computes 3 top at (1, 1) while listing
        # row 1; one past it, on either sign, it refuses.  Unguarded, the
        # last table wrapped around to no violation at all.
        top = kernels.MAX_SAFE_D
        assert 3 * top <= 2**63 - 1 < 3 * (top + 1)
        for D in ([0, top, -top, -top], [0, -top, top, 0, 0]):
            want = brute_scan(D)
            assert want[0]  # violations
            assert_scan_matches(D, *want)
        for D in ([0, top + 1, 0], [0, 0, -top - 1], [0, 2**62 + 1, 0, -(2**62)]):
            with pytest.raises(OverflowError):
                kernels.superadditivity_scan(np.array(D, dtype=np.int64))

    def test_piecewise_ceiling_exact(self):
        # g * g is the largest intermediate of the three-branch form.
        top = kernels.MAX_SAFE_PIECEWISE_G
        assert top * top <= 2**63 - 1 < (top + 1) * (top + 1)
        assert kernels.piecewise_mismatches(top - 20, top).total == 0
        assert all(dmax(g) == dmax_piecewise(g) for g in range(top - 20, top + 1))
        with pytest.raises(OverflowError):
            kernels.piecewise_mismatches(top + 1, top + 1)

    def test_f_bounds_ceiling_exact(self, monkeypatch):
        # n * n is the largest intermediate of the sandwich check.  F(n)
        # raised or lowered by one breaks the upper or the lower side at
        # every n of the window ending at the ceiling.
        top = kernels.MAX_SAFE_N
        assert top * top <= 2**63 - 1 < (top + 1) * (top + 1)
        real = kernels._half_products_of
        for bump in (0, 1, -1):
            monkeypatch.setattr(kernels, "_half_products_of", lambda ns, *rest: real(ns, *rest) + bump)
            oracle = [
                n for n in range(top - 20, top + 1) if not n * n - 1 <= 4 * (half_product(n) + bump) <= n * n
            ]
            assert len(oracle) == (21 if bump else 0)
            assert found(kernels.f_bound_violations(top - 20, top)) == (len(oracle), oracle)
        with pytest.raises(OverflowError):
            kernels.f_bound_violations(top + 1, top + 1)
        with pytest.raises(OverflowError):
            kernels.f_bound_violations(top - 20, top + 1)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            kernels.dmax_values(np.array([0], dtype=np.int64))
        with pytest.raises(ValueError):
            kernels.piecewise_mismatches(0, 10)
        with pytest.raises(ValueError):
            kernels.f_bound_violations(1, 10)
        with pytest.raises(ValueError):
            kernels.pair_efficiency_mismatches(1, 10)
