import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdim import kernels
from agdim.arith import (
    GenusValue,
    Pair,
    dmax,
    dmax_piecewise,
    dominates,
    half_product,
    is_negligible,
    keel_sadun_bound,
    strictly_dominates,
)


def brute_force_half_product(n: int) -> int:
    # F(n) is the largest product of two parts summing to n.
    return max(a * (n - a) for a in range(0, n + 1))


class TestDmax:
    def test_table_values(self):
        assert dmax(16) == 16
        assert dmax(17) == 16
        assert dmax(100) == 625

    def test_low_genus_branch(self):
        assert dmax(1) == 0
        assert [dmax(g) for g in range(1, 16)] == list(range(0, 15))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dmax(0)
        with pytest.raises(ValueError):
            dmax(-3)
        with pytest.raises(ValueError):
            dmax_piecewise(0)

    def test_piecewise_equivalence_small_scalar(self):
        for g in range(1, 2001):
            assert dmax(g) == dmax_piecewise(g)

    def test_piecewise_equivalence_full_range(self):
        # configuration default: one million
        assert kernels.piecewise_mismatches(1, 1_000_000).total == 0

    def test_matches_vectorized_kernel(self):
        import numpy as np

        gs = np.array([1, 2, 15, 16, 17, 100, 4001, 10**6], dtype=np.int64)
        assert [int(v) for v in kernels.dmax_values(gs)] == [dmax(int(g)) for g in gs]


class TestHalfProduct:
    def test_examples(self):
        assert half_product(8) == 16
        assert half_product(9) == 20

    def test_against_brute_force_and_closed_form(self):
        # 625 = F(50) via the two-letter family must equal dmax(100)
        assert brute_force_half_product(50) == 625
        assert half_product(50) == 625
        assert half_product(50) == dmax(100)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            half_product(1)
        with pytest.raises(ValueError):
            half_product(0)

    @given(st.integers(min_value=2, max_value=5000))
    def test_brute_force_oracle(self, n):
        assert half_product(n) == brute_force_half_product(n)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_quadratic_sandwich_exact_integers(self, n):
        f4 = 4 * half_product(n)
        assert n * n - 1 <= f4 <= n * n

    def test_sandwich_full_range(self):
        # configuration default: one hundred thousand
        assert kernels.f_bound_violations(2, 100_000).total == 0


class TestDomination:
    def test_examples(self):
        assert dominates(Pair(20, 18), Pair(10, 20))
        assert dominates(Pair(1, 2), Pair(1, 2))  # reflexive, non-strict
        assert not strictly_dominates(Pair(1, 2), Pair(1, 2))
        assert not dominates(Pair(3, 5), Pair(4, 4))

    def test_negligible(self):
        assert is_negligible(Pair(4, 8))
        assert not is_negligible(Pair(1, 2))
        assert not is_negligible(Pair(0, 1))

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            Pair(-1, 2)
        with pytest.raises(ValueError):
            Pair(0, 0)

    pairs = st.builds(
        Pair, st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=12)
    )

    @given(pairs)
    def test_reflexive(self, p):
        assert dominates(p, p)

    @given(pairs, pairs)
    def test_antisymmetric(self, p, q):
        if dominates(p, q) and dominates(q, p):
            assert p == q

    @given(pairs, pairs, pairs)
    @settings(max_examples=300)
    def test_transitive(self, p, q, r):
        # r dominated by q, q dominated by p  =>  r dominated by p
        if dominates(p, q) and dominates(q, r):
            assert dominates(p, r)

    @given(pairs)
    def test_strict_irreflexive(self, p):
        assert not strictly_dominates(p, p)

    @given(pairs, pairs, pairs)
    @settings(max_examples=300)
    def test_strict_transitive(self, p, q, r):
        if strictly_dominates(p, q) and strictly_dominates(q, r):
            assert strictly_dominates(p, r)


class TestSuperadditivity:
    def test_small_range_scalar(self):
        for g1 in range(1, 61):
            for g2 in range(g1, 121 - g1):
                assert dmax(g1 + g2) >= dmax(g1) + dmax(g2)

    def test_equality_cases_scalar(self):
        for g2 in (16, 18, 20, 100, 3998):
            assert dmax(1 + g2) == dmax(1) + dmax(g2)
        for g2 in (17, 19, 15, 14, 2):
            assert dmax(1 + g2) > dmax(1) + dmax(g2)
        assert dmax(2 + 16) > dmax(2) + dmax(16)


class TestKeelSadun:
    def test_table_values(self):
        assert keel_sadun_bound(3) == 2
        assert keel_sadun_bound(6) == 14
        assert keel_sadun_bound(100) == 4949

    def test_rejects_below_three(self):
        with pytest.raises(ValueError):
            keel_sadun_bound(2)


class TestGenusValue:
    def test_kinds_and_render(self):
        assert GenusValue(24, 34, "lower-bound").render() == ">=34"
        assert GenusValue(3, 2, "upper-bound").render() == "<=2"
        assert GenusValue(16, 16).render() == "16"

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            GenusValue(3, 2, "approx")
        with pytest.raises(ValueError):
            GenusValue(-1, 2)
