from functools import lru_cache

import numpy as np
import pytest

import agdim.pairs as pairs_mod
from agdim import kernels
from agdim.arith import Pair, dmax, dominates, half_product, strictly_dominates
from agdim.pairs import (
    MAX_SAFE_CLAIM_F,
    MAX_SAFE_REMARK,
    a1_pair,
    best_indecomposable,
    best_indecomposable_table,
    division_rank1_pair,
    division_rank1_pairs,
    division_rank2_pair,
    division_rank2_pairs,
    mdsp_star_table,
    orthogonal_star_pair,
    orthogonal_star_pairs,
    quaternion_symplectic_pair,
    quaternion_symplectic_pairs,
    unitary_pair,
    unitary_pairs,
    verify_claim_f,
    verify_remark_domination,
)
from agdim.report import MAX_LISTED, VerificationReport
from faults import (
    _both_claim_f_faults,
    _extra_equality,
    _huge_rank2,
    _set_pairs,
    _tie_every_rank1_cell,
    _undominated_family_ii,
)
from test_report import counter_diff

# The ten unitary-family pairs of genus <= 15, frozen from the case analysis:
# k=2 gives (2,6),(4,8),(6,10),(9,12),(12,14); k=3 gives (4,9),(8,12),(12,15);
# n=3 with k=4,5 gives (6,12),(8,15).  Stored as ((d, g), (k, n)).
SMALL_GENUS_FIXTURE = {
    ((2, 6), (2, 3)),
    ((4, 8), (2, 4)),
    ((6, 10), (2, 5)),
    ((9, 12), (2, 6)),
    ((12, 14), (2, 7)),
    ((4, 9), (3, 3)),
    ((8, 12), (3, 4)),
    ((12, 15), (3, 5)),
    ((6, 12), (4, 3)),
    ((8, 15), (5, 3)),
}


class TestFamilyFormulas:
    def test_a1(self):
        assert a1_pair() == Pair(1, 2)

    def test_unitary(self):
        assert unitary_pair(3, 5) == Pair(12, 15)
        assert unitary_pair(2, 8) == Pair(16, 16)
        assert unitary_pair(2, 2) == Pair(1, 4)  # degenerate witness case

    def test_other_families(self):
        assert orthogonal_star_pair(2, 5) == Pair(10, 20)
        assert quaternion_symplectic_pair(2, 3) == Pair(6, 12)
        assert quaternion_symplectic_pair(2, 2) == Pair(3, 8)
        assert division_rank1_pair(1, 2) == Pair(1, 4)
        assert division_rank1_pair(1, 3) == Pair(2, 9)
        assert division_rank2_pair(1, 2) == Pair(4, 8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            unitary_pair(1, 5)
        with pytest.raises(ValueError):
            orthogonal_star_pair(2, 3)
        with pytest.raises(ValueError):
            quaternion_symplectic_pair(2, 1)
        with pytest.raises(ValueError):
            division_rank1_pair(0, 2)


def unitary_family(g_max):
    """Every unitary-family pair of genus <= g_max (k >= 2, n >= 3), as
    ((d, g), (k, n)): the brute-force oracle, one (k, n) loop."""
    return {
        ((p.d, p.g), (k, n))
        for k in range(2, g_max // 3 + 1)
        for n in range(3, g_max // k + 1)
        for p in [unitary_pair(k, n)]
    }


class TestEnumeration:
    def test_small_genus_fixture(self):
        assert unitary_family(15) == SMALL_GENUS_FIXTURE

    def test_includes_the_first_optimal_family(self):
        assert ((16, 16), (2, 8)) in unitary_family(16)


class TestBestIndecomposable:
    def test_examples(self):
        assert best_indecomposable(2) == 1
        assert best_indecomposable(18) == 20
        assert best_indecomposable(17) == 0

    def test_no_pair_genera(self):
        assert best_indecomposable(1) == 0
        assert best_indecomposable(3) == 0  # 3 = 3*1 only; n >= 3 needs k >= 2
        assert best_indecomposable(5) == 0

    def test_against_enumeration_oracle(self):
        by_genus = {2: 1}  # the A1 pair (1, 2)
        for (d, g), _ in unitary_family(200):
            by_genus[g] = max(by_genus.get(g, 0), d)
        for g in range(1, 201):
            assert best_indecomposable(g) == by_genus.get(g, 0)

    def test_table_matches_scalar(self):
        table = best_indecomposable_table(300)
        assert table[0] == 0
        for g in range(1, 301):
            assert table[g] == best_indecomposable(g)

    def test_bound_and_equality_invariant(self):
        for g in range(1, 2001):
            bi = best_indecomposable(g)
            assert bi <= dmax(g)
            if g >= 2:
                expected_eq = g == 2 or (g >= 16 and g % 2 == 0)
                assert (bi == dmax(g)) == expected_eq


class TestMdspStar:
    def test_examples(self):
        assert mdsp_star_table(0)[0] == 0
        assert mdsp_star_table(16)[16] == 16
        assert mdsp_star_table(4)[4] == 2

    def test_partition_enumeration_oracle(self):
        bi = best_indecomposable_table(60)

        @lru_cache(maxsize=None)
        def best_over_partitions(g: int, max_part: int) -> int:
            # direct enumeration of partitions of g into parts <= max_part
            if g == 0:
                return 0
            best = 0
            for part in range(1, min(g, max_part) + 1):
                best = max(best, bi[part] + best_over_partitions(g - part, part))
            return best

        M = mdsp_star_table(60)
        for g in range(0, 61):
            assert M[g] == best_over_partitions(g, g)

    def test_superadditive_and_monotone(self):
        M = mdsp_star_table(1000)
        for g1 in range(1, 501):
            for g2 in range(g1, 1001 - g1):
                assert M[g1 + g2] >= M[g1] + M[g2]
        for g in range(1000):
            assert M[g + 1] >= M[g]

    def test_equals_dmax_in_the_exact_regime(self):
        M = mdsp_star_table(2000)
        for g in range(16, 2001):
            if g % 2 == 0 or g >= 17:
                assert M[g] == dmax(g), g

    def test_below_dmax_small_genus(self):
        M = mdsp_star_table(15)
        for g in range(3, 16):
            assert M[g] < dmax(g)  # lower bound only in this range


class TestClaimF:
    def test_passes_with_expected_equalities(self):
        report = verify_claim_f(64, 64, 64, 64)
        assert report.passed
        eqs = sorted(e["pair"] for e in report.details["equalities"])
        assert eqs == [[1, 4], [4, 8]]
        for e in report.details["equalities"]:
            assert (e["s"], e["delta"]) == (1, 2)

    def test_specific_domination_instances(self):
        # (2,9) strictly below the degenerate-free unitary pair (4,8)
        assert strictly_dominates(unitary_pair(2, 4), division_rank1_pair(1, 3))
        # equality instances
        assert unitary_pair(2, 2) == division_rank1_pair(1, 2)
        assert unitary_pair(2, 4) == division_rank2_pair(1, 2)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            verify_claim_f(1, 64, 64, 64)

    def test_searches_only_listed_failures(self, monkeypatch):
        # Every designated witness loses its dimension, so all 180 targets
        # fail; the fallback search runs for the 50 listed ones only.
        real_unitary, real_search = pairs_mod.unitary_pairs, pairs_mod._search_strict_dominator
        searches = []
        monkeypatch.setattr(pairs_mod, "unitary_pairs", lambda k, n: (0 * n, real_unitary(k, n)[1]))
        monkeypatch.setattr(
            pairs_mod,
            "_search_strict_dominator",
            lambda *args: searches.append(args) or real_search(*args),
        )
        doc = verify_claim_f(10, 10, 4, 4).to_dict()
        assert len(searches) == len(doc["counterexamples"]) == MAX_LISTED
        # 2 * 10 * 9 targets, plus the missing equality pairs
        assert doc["details"]["counterexamples_total"] == 181

    def test_equalities_listed_up_to_the_cap(self, monkeypatch):
        # Every target is made equal to its designated witness, so all 180
        # pairs are equalities: the report lists 50, and the equality-set
        # check still compares all 180 with {(1, 4), (4, 8)}.
        _tie_every_rank1_cell(monkeypatch)
        monkeypatch.setattr(pairs_mod, "division_rank2_pairs", lambda s, d: pairs_mod.unitary_pairs(2, s * d * d))
        report = verify_claim_f(10, 10, 2, 2)
        tied = sorted(
            [half_product(n), 2 * n]
            for s in range(1, 11)
            for d in range(2, 11)
            for n in (s * d * d // 2, s * d * d)
        )
        assert len(report.details["equalities"]) == MAX_LISTED
        assert report.counterexamples == counter_diff(
            "equality pairs differ from {(1, 4), (4, 8)}", tied, [[1, 4], [4, 8]]
        )
        assert report.counterexamples[0]["missing"] == []

    def test_each_family_ties_at_its_own_stated_cell(self, monkeypatch):
        # The rank-2 cell (1, 2) moved to (3, 8), which its witness (4, 8)
        # strictly dominates, so it no longer ties, and the rank-1 cell
        # (2, 2) moved to (4, 8), which ties.  Pooled into one multiset, the
        # rank-1 (4, 8) stood in for the missing rank-2 one and the report
        # passed.
        _extra_equality(monkeypatch)
        real = pairs_mod.division_rank2_pairs

        def moved(s, deltas):
            d, g = real(s, deltas)
            return np.where((s == 1) & (deltas == 2), 3, d), g

        monkeypatch.setattr(pairs_mod, "division_rank2_pairs", moved)
        report = verify_claim_f(4, 4, 4, 4)
        assert report.counterexamples == [
            {
                "reason": "equality pairs differ from {(1, 4), (4, 8)}",
                "unexpected": [[4, 8]],
                "missing": [[4, 8]],
            }
        ]

    @pytest.mark.parametrize(
        "pairs_fn, stated",
        [("division_rank1_pairs", [1, 4]), ("division_rank2_pairs", [4, 8])],
        ids=["I_nc1", "I_nc2"],
    )
    def test_wrong_pair_at_the_stated_cell_is_listed(self, monkeypatch, pairs_fn, stated):
        # The cell (1, 2) gives (d, g + 1): it still ties, as its witness
        # has the same d and a smaller g, but it is not the stated pair.
        _wrong_pair_at_stated_cell(monkeypatch, pairs_fn)
        report = verify_claim_f(4, 4, 4, 4)
        assert report.counterexamples == [
            {
                "reason": "equality pairs differ from {(1, 4), (4, 8)}",
                "unexpected": [[stated[0], stated[1] + 1]],
                "missing": [stated],
            }
        ]


def _wrong_pair_at_stated_cell(mp, pairs_fn):
    real = getattr(pairs_mod, pairs_fn)

    def fake(s, deltas):
        d, g = real(s, deltas)
        return d, np.where((s == 1) & (deltas == 2), g + 1, g)

    _set_pairs(mp, pairs_fn, fake)


def _wrong_rank1_stated_pair(mp):
    _wrong_pair_at_stated_cell(mp, "division_rank1_pairs")


class TestRemarkDomination:
    def test_passes(self):
        report = verify_remark_domination(64, 64)
        assert report.passed
        assert report.counterexamples == []
        by_case = {(w["family"], w["r"]): w for w in report.to_dict()["witnesses"]}
        assert by_case[("III", 3)]["designated"] is True
        assert by_case[("III", 3)]["witness"]["n"] == 6
        assert by_case[("II", 5)]["witness"]["n"] == 9
        # the r=2 case needs the searched witness n=4 instead of 2r-1=3
        assert by_case[("III", 2)]["designated"] is False
        assert by_case[("III", 2)]["witness"]["n"] == 4

    def test_specific_instances(self):
        assert strictly_dominates(unitary_pair(2, 9), orthogonal_star_pair(2, 5))
        assert strictly_dominates(unitary_pair(2, 6), quaternion_symplectic_pair(2, 3))
        # the remark's generic witness fails for III with r=2 ...
        assert not dominates(unitary_pair(2, 3), quaternion_symplectic_pair(2, 2))
        # ... but the same-genus unitary pair works
        assert strictly_dominates(unitary_pair(2, 4), quaternion_symplectic_pair(2, 2))


# ---------------------------------------------------------------------------
# The array forms and the numpy rows of the two domination checks, against
# Python-int references
# ---------------------------------------------------------------------------

ARRAY_FORMS = [
    (unitary_pairs, unitary_pair, range(2, 10), range(2, 21)),
    (orthogonal_star_pairs, orthogonal_star_pair, range(2, 10), range(4, 13)),
    (quaternion_symplectic_pairs, quaternion_symplectic_pair, range(2, 10), range(2, 13)),
    (division_rank1_pairs, division_rank1_pair, range(1, 10), range(2, 13)),
    (division_rank2_pairs, division_rank2_pair, range(1, 10), range(2, 13)),
]


@pytest.mark.parametrize("array_fn, scalar_fn, outer, inner", ARRAY_FORMS)
def test_array_forms_match_scalars(array_fn, scalar_fn, outer, inner):
    inner_arr = np.array(inner, dtype=np.int64)
    for a in outer:
        d, g = array_fn(a, inner_arr)
        assert list(zip(d.tolist(), g.tolist())) == [
            (p.d, p.g) for p in (scalar_fn(a, b) for b in inner)
        ]


def _scalar_search(target, k_max, n_max):
    for k in range(2, k_max + 1):
        for n in range(2, n_max + 1):
            if k * n > target.g:
                break
            if strictly_dominates(unitary_pair(k, n), target):
                return (k, n)
    return None


def _scalar_smallest_n(k, target):
    return next(
        (n for n in range(2, target.g // k + 1) if strictly_dominates(unitary_pair(k, n), target)),
        None,
    )


def test_smallest_dominating_n_matches_scalar_search():
    for k in range(2, 7):
        for d in range(150):
            for g in range(1, 50):
                target = Pair(d, g)
                assert pairs_mod._smallest_dominating_n(k, target) == _scalar_smallest_n(k, target)


def test_search_strict_dominator_matches_scalar_search():
    for d in range(0, 120, 7):
        for g in range(1, 60, 3):
            for k_max, n_max in ((2, 2), (3, 9), (6, 4), (20, 40)):
                target = Pair(d, g)
                want = _scalar_search(target, k_max, n_max)
                assert pairs_mod._search_strict_dominator(target, k_max, n_max) == want


def scalar_claim_f(s_max, delta_max, k_max, n_max):
    """The pair-by-pair claim-F loop, in Python ints, as the reference.  It
    reads the division-family constructors off ``agdim.pairs`` at call time,
    so a test can fault them as it faults their array forms."""
    counterexamples, equalities, unexpected, missing, checked = [], [], [], [], 0
    branches = (
        ("I_nc1", pairs_mod.division_rank1_pair, lambda s, d: max(2, (s * d * d) // 2), [1, 4]),
        ("I_nc2", pairs_mod.division_rank2_pair, lambda s, d: s * d * d, [4, 8]),
    )
    for family, pair_fn, witness_n, stated in branches:
        stated_tied = False
        for s in range(1, s_max + 1):
            for delta in range(2, delta_max + 1):
                target = pair_fn(s, delta)
                checked += 1
                n_w = witness_n(s, delta)
                witness = unitary_pair(2, n_w)
                head = {"family": family, "s": s, "delta": delta, "pair": [target.d, target.g]}
                if strictly_dominates(witness, target):
                    continue
                if dominates(witness, target):
                    equalities.append({**head, "witness": {"family": "I", "k": 2, "n": n_w}})
                    if (s, delta) == (1, 2) and [target.d, target.g] == stated:  # the family's stated tie
                        stated_tied = True
                    else:
                        unexpected.append([target.d, target.g])
                    continue
                found = _scalar_search(target, k_max, n_max)
                if found is None:
                    counterexamples.append({**head, "reason": "no dominating unitary pair in range"})
                else:
                    counterexamples.append(
                        {
                            **head,
                            "reason": "designated witness failed; search found one",
                            "witness": {"family": "I", "k": found[0], "n": found[1]},
                        }
                    )
        if not stated_tied:
            missing.append(stated)
    if unexpected or missing:
        counterexamples.append(
            {
                "reason": "equality pairs differ from {(1, 4), (4, 8)}",
                "unexpected": sorted(unexpected)[:MAX_LISTED],
                "missing": missing,
            }
        )
    return VerificationReport(
        claim="claim-F",
        range={"s_max": s_max, "delta_max": delta_max, "k_max": k_max, "n_max": n_max},
        counterexamples=counterexamples,
        witnesses=[
            {"family": "I_nc1", "witness_rule": "k=2, n=floor(s*delta^2/2)", "strict_except": [[1, 4]]},
            {"family": "I_nc2", "witness_rule": "k=2, n=s*delta^2", "strict_except": [[4, 8]]},
        ],
        details={"pairs_checked": checked, "equalities": equalities[:MAX_LISTED]},
    )


def scalar_remark_domination(r_max, k_max):
    """The pair-by-pair remark-domination loop, in Python ints, as the
    reference.  It reads ``orthogonal_star_pair`` off ``agdim.pairs`` at call
    time, so a test can fault it as it faults the array form."""
    counterexamples, witnesses, checked = [], [], 0
    cases = [("II", r) for r in range(4, r_max + 1)] + [("III", r) for r in range(2, r_max + 1)]
    for family, r in sorted(cases):
        pair_fn = pairs_mod.orthogonal_star_pair if family == "II" else quaternion_symplectic_pair
        designated_n = 6 if (family, r) == ("III", 3) else 2 * r - 1
        designated_ok, fallback_n = True, None
        for k in range(2, k_max + 1):
            target = pair_fn(k, r)
            checked += 1
            if strictly_dominates(unitary_pair(k, designated_n), target):
                continue
            designated_ok = False
            found = next(
                (n for n in range(2, target.g // k + 1) if strictly_dominates(unitary_pair(k, n), target)),
                None,
            )
            if found is None:
                counterexamples.append(
                    {"family": family, "k": k, "r": r, "pair": [target.d, target.g],
                     "reason": "no same-k dominating unitary pair"}
                )
            elif fallback_n is None:
                fallback_n = found
            elif fallback_n != found:
                fallback_n = -1
        entry = {
            "family": family,
            "r": r,
            "k_range": [2, k_max],
            "designated": designated_ok,
            "witness": {"family": "I", "k": "same", "n": designated_n},
        }
        if not designated_ok and fallback_n is not None and fallback_n > 0:
            entry["witness"] = {"family": "I", "k": "same", "n": fallback_n}
        witnesses.append(entry)
    return VerificationReport(
        claim="remark-domination",
        range={"r_max": r_max, "k_max": k_max},
        counterexamples=counterexamples,
        witnesses=witnesses,
        details={"pairs_checked": checked},
    )


@pytest.mark.parametrize(
    "s_max, delta_max, k_max, n_max",
    [(2, 2, 2, 2), (2, 9, 2, 2), (9, 2, 5, 3), (7, 13, 4, 9), (20, 6, 2, 30)],
)
def test_claim_f_rows_match_scalar_loop(s_max, delta_max, k_max, n_max):
    got = verify_claim_f(s_max, delta_max, k_max, n_max).to_dict()
    assert got == scalar_claim_f(s_max, delta_max, k_max, n_max).to_dict()


@pytest.mark.parametrize(
    "r_max, k_max", [(2, 2), (3, 2), (4, 2), (2, 9), (4, 7), (9, 3), (13, 2)]
)
def test_remark_rows_match_scalar_loop(r_max, k_max):
    got = verify_remark_domination(r_max, k_max).to_dict()
    assert got == scalar_remark_domination(r_max, k_max).to_dict()


class TestBlocksOfRows:
    """Each family is taken in blocks of rows of about kernels.PAIR_BLOCK
    cells.  At 1 every block is one row, and a row is wider than its block;
    at 7 and 300 the ranges below take several blocks of several rows, one
    of them short.  Each fault is made in the array form and in its scalar
    twin: it fails every rank-2 cell, or every family II cell, so failures
    straddle every block edge, or adds a tie at (s, delta) = (2, 2), or
    ties every rank-1 cell, so the smallest ties come from several blocks,
    or both fails every rank-2 cell and adds the (2, 2) tie, so that the
    rank-1 family ties at (4, 8), the rank-2 family's stated pair, while
    the rank-2 family misses it, or ties the rank-1 cell (1, 2) at (1, 5),
    not at its stated (1, 4).  A test id names a fault with its scalar
    twin ``_scalar`` + its name."""

    CLAIM_F = [(2, 2, 2, 2), (9, 2, 3, 3), (40, 13, 3, 4), (70, 6, 2, 4), (3, 400, 2, 2)]
    REMARK = [(2, 2), (13, 2), (9, 13), (40, 9), (320, 2), (6, 400)]

    @pytest.mark.parametrize(
        "fault",
        [
            None,
            _extra_equality,
            _huge_rank2,
            _tie_every_rank1_cell,
            _both_claim_f_faults,
            _wrong_rank1_stated_pair,
        ],
        ids=lambda fault: fault and f"_scalar{fault.__name__}",
    )
    @pytest.mark.parametrize("block", [1, 7, 300])
    def test_claim_f_matches_scalar_loop(self, monkeypatch, block, fault):
        monkeypatch.setattr(kernels, "PAIR_BLOCK", block)
        if fault:
            fault(monkeypatch)
        for args in self.CLAIM_F:
            want = scalar_claim_f(*args).to_dict()
            assert verify_claim_f(*args).to_dict() == want, args
            assert want["status"] == ("pass" if fault is None else "fail")

    @pytest.mark.parametrize(
        "fault", [None, _undominated_family_ii], ids=lambda fault: fault and f"_scalar{fault.__name__}"
    )
    @pytest.mark.parametrize("block", [1, 7, 300])
    def test_remark_matches_scalar_loop(self, monkeypatch, block, fault):
        monkeypatch.setattr(kernels, "PAIR_BLOCK", block)
        if fault:
            fault(monkeypatch)
        for args in self.REMARK:
            want = scalar_remark_domination(*args).to_dict()
            assert verify_remark_domination(*args).to_dict() == want, args
            assert want["status"] == ("fail" if fault and args[0] >= 4 else "pass")

    def test_one_unitary_call_per_block(self, monkeypatch):
        # At 256/256 a block is 64 rows of 255 cells; a row per s or per r
        # made 512 and 508 calls.
        real, calls = pairs_mod.unitary_pairs, []
        monkeypatch.setattr(pairs_mod, "unitary_pairs", lambda k, n: calls.append(1) or real(k, n))
        rows = kernels.PAIR_BLOCK // 255
        assert verify_claim_f(256, 256, 2, 2).passed
        assert len(calls) <= 2 * -(-256 // rows)
        calls.clear()
        assert verify_remark_domination(256, 256).passed
        assert len(calls) <= -(-253 // rows) + -(-255 // rows)


def _dimension_zero_witnesses(mp):
    """Every designated witness of remark-domination loses its dimension,
    so every cell takes the fallback."""
    mp.setattr(pairs_mod, "unitary_pairs", lambda k, n: (0 * k * n, k * n))


def _cell_by_cell_fallback(report, family, r, k, d, g):
    """A failing row's fallback one cell at a time with the scalar rule
    ``_smallest_dominating_n``: the oracle of ``pairs._row_fallback``."""
    fallback_n = None
    for kk, dd, gg in zip(k.tolist(), d.tolist(), g.tolist()):
        found = pairs_mod._smallest_dominating_n(kk, Pair(dd, gg))
        if found is None:
            report.add(
                [{"family": family, "k": kk, "r": r, "pair": [dd, gg], "reason": "no same-k dominating unitary pair"}]
            )
        elif fallback_n is None:
            fallback_n = found
        elif fallback_n != found:
            fallback_n = -1
    return fallback_n


class TestRowFallback:
    """A failing row's cells take the closed-form rule in one numpy pass."""

    @pytest.mark.parametrize("undominated", [False, True])
    @pytest.mark.parametrize("r_max, k_max", [(9, 13), (40, 300)])
    def test_matches_cell_by_cell_rule(self, monkeypatch, r_max, k_max, undominated):
        # Every row falls back at every k, with one n per row; with family
        # II undominated, its rows also list cells with no dominating n (more
        # than MAX_LISTED at 40/300), and mix their n.
        _dimension_zero_witnesses(monkeypatch)
        if undominated:
            _undominated_family_ii(monkeypatch)
        got = verify_remark_domination(r_max, k_max).to_dict()
        with monkeypatch.context() as mp:
            mp.setattr(pairs_mod, "_row_fallback", _cell_by_cell_fallback)
            want = verify_remark_domination(r_max, k_max).to_dict()
        assert got == want
        assert not any(w["designated"] for w in got["witnesses"])
        assert got["status"] == ("fail" if undominated else "pass")

    def test_root_exact_near_squares(self):
        # x = 4 (d // (k-1)) + 3 one below an even square m^2, where a float
        # sqrt alone rounds up to m once x passes 2^52: a II or III target
        # stays below 2^44, a faulted one need not.  And every d below 300.
        report = VerificationReport(claim="remark-domination", range={})
        cells = []
        for m in [*range(2, 200, 2), *(top - e for top in (1 << 22, 1 << 26, 1 << 30) for e in range(0, 40, 2))]:
            for k in (2, 3, 7):
                cells.append((k, (k - 1) * ((m * m - 4) // 4)))
        cells += [(k, d) for k in (2, 5) for d in range(300)]
        for k, d in cells:
            target = Pair(d, 1 << 62)
            row = [np.array([v], dtype=np.int64) for v in (k, d, target.g)]
            assert pairs_mod._row_fallback(report, "II", 4, *row) == pairs_mod._smallest_dominating_n(k, target)
        assert report.passed


class TestInt64Limits:
    """Each limit is exact: the largest value of a row fits int64 at the
    limit (checked against Python ints) and would not one step above it."""

    def test_claim_f_at_limit(self):
        top = MAX_SAFE_CLAIM_F
        deltas = np.arange(2, top + 1, dtype=np.int64)
        d, _ = unitary_pairs(2, top * deltas * deltas)  # rank-2 witnesses at s = top
        assert d.tolist() == [half_product(top * x * x) for x in range(2, top + 1)]
        assert half_product(top**3) <= 2**63 - 1 < half_product((top + 1) ** 3)
        for array_fn, scalar_fn in (
            (division_rank1_pairs, division_rank1_pair),
            (division_rank2_pairs, division_rank2_pair),
        ):
            d, g = array_fn(top, deltas[-3:])
            assert list(zip(d.tolist(), g.tolist())) == [
                (p.d, p.g) for p in (scalar_fn(top, x) for x in range(top - 2, top + 1))
            ]
        assert verify_claim_f(top, top, 2, 2).passed
        with pytest.raises(OverflowError):
            verify_claim_f(top + 1, 2, 2, 2)
        with pytest.raises(OverflowError):
            verify_claim_f(2, top + 1, 2, 2)

    def test_remark_at_limit(self):
        top = MAX_SAFE_REMARK
        ks = np.arange(top - 2, top + 1, dtype=np.int64)
        for array_fn, scalar_fn, r in (
            (unitary_pairs, unitary_pair, 2 * top - 1),
            (orthogonal_star_pairs, orthogonal_star_pair, top),
            (quaternion_symplectic_pairs, quaternion_symplectic_pair, top),
        ):
            d, g = array_fn(ks, r)
            assert list(zip(d.tolist(), g.tolist())) == [
                (p.d, p.g) for p in (scalar_fn(k, r) for k in range(top - 2, top + 1))
            ]
        assert (top - 1) * half_product(2 * top - 1) <= 2**63 - 1
        assert top * half_product(2 * top + 1) > 2**63 - 1
        with pytest.raises(OverflowError):
            verify_remark_domination(top + 1, 2)
        with pytest.raises(OverflowError):
            verify_remark_domination(2, top + 1)
