import numpy as np
import pytest

from agdim import kernels
from agdim.arith import dmax, dmax_piecewise, half_product
from agdim.pairs import best_indecomposable


def python_mdsp(bi):
    M = [0] * len(bi)
    for g in range(1, len(bi)):
        best = bi[g]
        for g1 in range(1, g // 2 + 1):
            best = max(best, M[g1] + M[g - g1])
        M[g] = best
    return M


def rows(arr):
    return [tuple(int(v) for v in row) for row in arr.tolist()]


class TestBackendSelection:
    def test_backend_reported(self):
        assert kernels.BACKEND == "numpy"


class TestAgainstScalars:
    def test_dmax_values_vs_scalar(self):
        gs = np.array([1, 2, 3, 15, 16, 17, 18, 999, 123456], dtype=np.int64)
        assert [int(v) for v in kernels.dmax_values(gs)] == [dmax(int(g)) for g in gs]

    def test_best_indec_vs_scalar(self):
        table = kernels.best_indec_table(400)
        for g in range(1, 401):
            assert int(table[g]) == best_indecomposable(g)

    def test_mdsp_vs_pure_python(self):
        bi = [int(v) for v in kernels.best_indec_table(300)]
        assert [int(v) for v in kernels.mdsp_table(np.array(bi, dtype=np.int64))] == python_mdsp(bi)

    def test_piecewise_vs_scalar(self):
        oracle = [g for g in range(1, 5001) if dmax(g) != dmax_piecewise(g)]
        assert [int(g) for g in kernels.piecewise_mismatches(1, 5000)] == oracle

    def test_f_bounds_vs_scalar(self):
        oracle = [
            n for n in range(2, 5001) if not n * n - 1 <= 4 * half_product(n) <= n * n
        ]
        assert [int(n) for n in kernels.f_bound_violations(2, 5000)] == oracle

    def test_superadditivity_vs_scalar(self):
        g_max = 800
        D = np.zeros(g_max + 1, dtype=np.int64)
        D[1:] = kernels.dmax_values(np.arange(1, g_max + 1, dtype=np.int64))
        viol, eqs = kernels.superadditivity_scan(D, 1, 400)
        want_viol, want_eqs = [], []
        for g1 in range(1, 401):
            for g2 in range(g1, g_max - g1 + 1):
                diff = dmax(g1 + g2) - dmax(g1) - dmax(g2)
                if diff < 0:
                    want_viol.append((g1, g2))
                elif diff == 0:
                    want_eqs.append((g1, g2))
        assert rows(viol) == want_viol == []
        assert rows(eqs) == want_eqs
        assert want_eqs == [(1, g2) for g2 in range(16, g_max, 2)]

    def test_pair_efficiency_vs_scalar(self):
        for n in (60, 200):
            oracle = [
                (a, b)
                for a in range(2, n + 1)
                for b in range(a, n + 1)
                if (a * b < 2 * (a + b)) != ((a - 2) * (b - 2) < 4)
            ]
            assert rows(kernels.pair_efficiency_mismatches(n, n)) == oracle == []


class TestGuards:
    def test_overflow_ceilings(self):
        with pytest.raises(OverflowError):
            kernels.piecewise_mismatches(1, kernels.MAX_SAFE_G + 1)
        with pytest.raises(OverflowError):
            kernels.f_bound_violations(2, kernels.MAX_SAFE_N + 1)
        with pytest.raises(OverflowError):
            kernels.dmax_values(np.array([kernels.MAX_SAFE_G + 1], dtype=np.int64))

    def test_piecewise_ceiling_exact(self):
        # g * g is the largest intermediate of the three-branch form.
        top = kernels.MAX_SAFE_PIECEWISE_G
        assert top * top <= 2**63 - 1 < (top + 1) * (top + 1)
        assert kernels.piecewise_mismatches(top - 20, top).size == 0
        assert all(dmax(g) == dmax_piecewise(g) for g in range(top - 20, top + 1))
        with pytest.raises(OverflowError):
            kernels.piecewise_mismatches(top + 1, top + 1)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            kernels.dmax_values(np.array([0], dtype=np.int64))
        with pytest.raises(ValueError):
            kernels.piecewise_mismatches(0, 10)
        with pytest.raises(ValueError):
            kernels.f_bound_violations(1, 10)
        with pytest.raises(ValueError):
            kernels.pair_efficiency_mismatches(1, 10)
