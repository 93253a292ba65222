import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdim.arith import dmax
from agdim.efficiency import (
    MAX_SUM_OUTSIDE_UNBOUNDED,
    Multiset,
    in_unbounded_family,
    is_efficient_closed,
    is_efficient_oracle,
    iter_multisets,
    prod_sum,
    verify_efficiency_classification,
)


class TestMultiset:
    def test_canonical_form(self):
        assert Multiset([3, 2, 2]).elements == (2, 2, 3)
        assert Multiset([5, 2]) == Multiset([2, 5])
        assert hash(Multiset((4, 4))) == hash(Multiset([4, 4]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Multiset([])
        with pytest.raises(ValueError):
            Multiset([1, 3])

    def test_str(self):
        assert str(Multiset([3, 2])) == "{2, 3}"


class TestProdSum:
    def test_examples(self):
        assert prod_sum(Multiset([2, 2, 2])) == (8, 6)
        assert prod_sum(Multiset([3, 5])) == (15, 8)
        assert prod_sum(Multiset([7])) == (7, 7)

    @given(st.lists(st.integers(2, 50), min_size=2, max_size=6))
    def test_prod_dominates_sum_beyond_singletons(self, elements):
        prod, total = prod_sum(Multiset(elements))
        assert prod >= total


class TestClassification:
    def test_oracle_examples(self):
        assert is_efficient_oracle(Multiset([3, 6])) is False  # boundary (a-2)(b-2)=4
        assert is_efficient_oracle(Multiset([2, 100])) is True  # 200 < 204
        assert is_efficient_oracle(Multiset([2, 2, 2, 2])) is False

    def test_closed_examples(self):
        assert is_efficient_closed(Multiset([2, 2, 3])) is True
        assert is_efficient_closed(Multiset([2, 2, 4])) is False
        assert is_efficient_closed(Multiset([9])) is True
        assert is_efficient_closed(Multiset([2, 3, 3])) is False
        assert is_efficient_closed(Multiset([3, 5])) is True
        assert is_efficient_closed(Multiset([3, 6])) is False

    def test_agreement_window(self):
        report = verify_efficiency_classification(45)
        assert report.passed
        assert report.counterexamples == []
        # the true extreme outside {b} and {2,b} is {3,5} with sum 8
        assert report.details["max_sum_of_efficient_outside_unbounded"] == 8
        assert 8 <= MAX_SUM_OUTSIDE_UNBOUNDED

    @given(st.integers(2, 10**6))
    def test_unbounded_families_stay_efficient(self, b):
        assert is_efficient_oracle(Multiset([b]))
        assert is_efficient_oracle(Multiset([2, b]))
        assert in_unbounded_family(Multiset([2, b]))

    @given(st.lists(st.integers(2, 10**4), min_size=1, max_size=7))
    @settings(max_examples=400)
    def test_closed_matches_oracle_randomized(self, elements):
        N = Multiset(elements)
        assert is_efficient_closed(N) == is_efficient_oracle(N)

    def test_monotonicity_under_growth(self):
        # inefficiency survives raising an element or adjoining a new one
        for elements in iter_multisets(40):
            N = Multiset(elements)
            if is_efficient_oracle(N):
                continue
            for i in range(len(elements)):
                raised = list(elements)
                raised[i] += 1
                assert not is_efficient_oracle(Multiset(raised))
            for extra in (2, 3, 5):
                assert not is_efficient_oracle(Multiset(list(elements) + [extra]))

    def test_iter_multisets_complete(self):
        got = set(iter_multisets(8))
        assert (2, 2, 2, 2) in got
        assert (8,) in got
        assert (2, 3) in got
        assert all(sum(m) <= 8 and min(m) >= 2 for m in got)
        # partitions into parts >= 2 per sum s=2..8: 1,1,2,2,4,4,7
        assert len(got) == 21


class TestMixedTwoFamilyMargin:
    def test_type_ii_margin(self):
        """Arithmetic skeleton of the mixed {2, b} estimate for the
        orthogonal-star factor: with l1 curve-type and l2 star-type real
        factors, the candidate dimension l1 + l2 r(r-1)/2 in genus at least
        2r(l1+l2) is either negligible or beaten by the genus bound with a
        margin of more than one."""
        for r in range(4, 65):
            for l1 in range(1, 17):
                for l2 in range(1, 17):
                    d_bound = l1 + l2 * (r * (r - 1) // 2)
                    g_min = 2 * r * (l1 + l2)
                    negligible = d_bound < g_min - 1
                    assert negligible or dmax(g_min) > d_bound + 1, (r, l1, l2)

    def test_two_vs_b_split_margin(self):
        # the generic step: l1 + l2*dmax(b) < dmax(b*(l1+l2)) for b >= 3
        for b in range(3, 40):
            for l1 in range(1, 9):
                for l2 in range(1, 9):
                    assert l1 + l2 * dmax(b) < dmax(b * (l1 + l2))

    def test_prod_bound_used_by_reduction(self):
        # math.prod/sum consistency on the window backing the reduction
        for elements in iter_multisets(30):
            prod, total = prod_sum(Multiset(elements))
            assert prod == math.prod(elements)
            assert total == sum(elements)
            if len(elements) >= 2 and not is_efficient_oracle(Multiset(elements)):
                assert prod >= 2 * total
