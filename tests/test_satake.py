import json
import math

import numpy as np
import pytest

from agdim.satake import (
    FAMILIES,
    _grid_pieces,
    NON_SELF_DUAL,
    ORTHOGONAL,
    SYMPLECTIC,
    CaseLabel,
    case,
    catalog_json,
    classify,
    duality_type,
    family_grid,
    hss_dimension,
    iter_cases,
    min_compact_factors,
    min_multiplicity,
    rep_dimension,
)

# Every row of the catalog with rep_dim <= 8, transcribed by hand.
# Fields: (case, params, hss_dim, rep_dim, duality, min_compact_factors)
GOLDEN_CATALOG_8 = [
    ("A1", {}, 1, 2, SYMPLECTIC, 0),
    ("D4", {}, 6, 8, ORTHOGONAL, 0),
    ("I", {"p": 1, "n": 3}, 2, 3, NON_SELF_DUAL, 1),
    ("I", {"p": 1, "n": 4}, 3, 4, NON_SELF_DUAL, 1),
    ("I", {"p": 2, "n": 4}, 4, 4, NON_SELF_DUAL, 1),
    ("I", {"p": 1, "n": 5}, 4, 5, NON_SELF_DUAL, 1),
    ("I", {"p": 2, "n": 5}, 6, 5, NON_SELF_DUAL, 1),
    ("I", {"p": 1, "n": 6}, 5, 6, NON_SELF_DUAL, 1),
    ("I", {"p": 2, "n": 6}, 8, 6, NON_SELF_DUAL, 1),
    ("I", {"p": 3, "n": 6}, 9, 6, NON_SELF_DUAL, 1),
    ("I", {"p": 1, "n": 7}, 6, 7, NON_SELF_DUAL, 1),
    ("I", {"p": 2, "n": 7}, 10, 7, NON_SELF_DUAL, 1),
    ("I", {"p": 3, "n": 7}, 12, 7, NON_SELF_DUAL, 1),
    ("I", {"p": 1, "n": 8}, 7, 8, NON_SELF_DUAL, 1),
    ("I", {"p": 2, "n": 8}, 12, 8, NON_SELF_DUAL, 1),
    ("I", {"p": 3, "n": 8}, 15, 8, NON_SELF_DUAL, 1),
    ("I", {"p": 4, "n": 8}, 16, 8, NON_SELF_DUAL, 1),
    ("Iprime", {"n": 4, "c": 2}, 3, 6, ORTHOGONAL, 1),
    ("II", {"r": 2}, 1, 4, ORTHOGONAL, 0),
    ("II", {"r": 3}, 3, 6, ORTHOGONAL, 0),
    ("III1", {"r": 2}, 3, 4, SYMPLECTIC, 0),
    ("III1", {"r": 3}, 6, 6, SYMPLECTIC, 0),
    ("III1", {"r": 4}, 10, 8, SYMPLECTIC, 0),
    ("III2", {"r": 2}, 3, 4, SYMPLECTIC, 1),
    ("III2", {"r": 3}, 6, 6, SYMPLECTIC, 1),
    ("III2", {"r": 4}, 10, 8, SYMPLECTIC, 1),
    ("IV1even", {"p": 3}, 4, 4, NON_SELF_DUAL, 1),
    ("IV1odd", {"p": 2}, 3, 4, SYMPLECTIC, 1),
    ("IV1odd", {"p": 3}, 5, 8, ORTHOGONAL, 1),
    ("IV2", {"r": 3}, 4, 4, NON_SELF_DUAL, 0),
]


class TestDimensions:
    def test_hss_examples(self):
        assert hss_dimension(case("I", p=3, n=7)) == 12
        assert hss_dimension(case("III1", r=2)) == 3
        assert hss_dimension(case("A1")) == 1

    def test_rep_examples(self):
        assert rep_dimension(case("Iprime", n=6, c=3)) == 20
        assert rep_dimension(case("IV1odd", p=4)) == 16
        assert rep_dimension(case("II", r=5)) == 10

    def test_d4_row(self):
        d4 = classify(case("D4"))
        assert (d4.hss_dim, d4.rep_dim, d4.duality) == (6, 8, ORTHOGONAL)


class TestDuality:
    def test_examples(self):
        assert duality_type(case("IV1even", p=6)) == SYMPLECTIC
        assert duality_type(case("Iprime", n=6, c=3)) == SYMPLECTIC
        assert duality_type(case("I", p=1, n=3)) == NON_SELF_DUAL

    def test_iprime_split(self):
        assert duality_type(case("Iprime", n=6, c=2)) == NON_SELF_DUAL
        assert duality_type(case("Iprime", n=8, c=4)) == ORTHOGONAL
        assert duality_type(case("Iprime", n=10, c=5)) == SYMPLECTIC

    def test_iv1even_mod4(self):
        assert duality_type(case("IV1even", p=8)) == ORTHOGONAL
        assert duality_type(case("IV1even", p=3)) == NON_SELF_DUAL
        assert duality_type(case("IV1even", p=5)) == NON_SELF_DUAL

    def test_iv1odd_mod4(self):
        assert duality_type(case("IV1odd", p=2)) == SYMPLECTIC
        assert duality_type(case("IV1odd", p=3)) == ORTHOGONAL
        assert duality_type(case("IV1odd", p=4)) == ORTHOGONAL
        assert duality_type(case("IV1odd", p=5)) == SYMPLECTIC

    def test_iv2_mod4(self):
        assert duality_type(case("IV2", r=3)) == NON_SELF_DUAL
        assert duality_type(case("IV2", r=6)) == SYMPLECTIC
        assert duality_type(case("IV2", r=8)) == ORTHOGONAL

    def test_min_multiplicity(self):
        assert min_multiplicity(SYMPLECTIC) == 1
        assert min_multiplicity(NON_SELF_DUAL) == 2
        assert min_multiplicity(ORTHOGONAL) == 2
        with pytest.raises(ValueError):
            min_multiplicity("twisted")


class TestCompactFactorFlags:
    def test_skew_hermitian_threshold(self):
        assert min_compact_factors(case("II", r=2)) == 0
        assert min_compact_factors(case("II", r=3)) == 0
        assert min_compact_factors(case("II", r=5)) == 1
        assert min_compact_factors(case("IV2", r=3)) == 0
        assert min_compact_factors(case("IV2", r=5)) == 1

    def test_always_forced(self):
        assert min_compact_factors(case("I", p=1, n=3)) == 1
        assert min_compact_factors(case("Iprime", n=4, c=2)) == 1
        assert min_compact_factors(case("III2", r=2)) == 1
        assert min_compact_factors(case("IV1even", p=3)) == 1
        assert min_compact_factors(case("IV1odd", p=2)) == 1

    def test_never_forced(self):
        assert min_compact_factors(case("A1")) == 0
        assert min_compact_factors(case("D4")) == 0
        assert min_compact_factors(case("III1", r=7)) == 0


class TestValidation:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("I", {"p": 0, "n": 5}),
            ("I", {"p": 3, "n": 5}),
            ("I", {"p": 1, "n": 2}),
            ("Iprime", {"n": 3, "c": 2}),
            ("Iprime", {"n": 6, "c": 1}),
            ("Iprime", {"n": 6, "c": 5}),
            ("II", {"r": 1}),
            ("II", {"r": 4}),
            ("III1", {"r": 1}),
            ("III2", {"r": 0}),
            ("IV1even", {"p": 2}),
            ("IV1even", {"p": 4}),
            ("IV1odd", {"p": 1}),
            ("IV2", {"r": 2}),
            ("IV2", {"r": 4}),
        ],
    )
    def test_rejects_out_of_range(self, family, params):
        with pytest.raises(ValueError) as err:
            case(family, **params)
        assert family in str(err.value)  # the error names the constraint

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            case("V", r=2)
        with pytest.raises(ValueError):
            CaseLabel("I", (1,))

    def test_label_str(self):
        assert str(case("I", p=2, n=5)) == "I(p=2, n=5)"
        assert str(case("A1")) == "A1"


class TestCatalog:
    def test_golden_fixture(self):
        got = [
            (c.label.family, c.label.params_dict(), c.hss_dim, c.rep_dim, c.duality,
             c.min_compact_factors)
            for c in iter_cases(8)
        ]
        assert got == GOLDEN_CATALOG_8

    def test_invariants(self):
        for c in iter_cases(64):
            assert c.rep_dim >= 2
            assert c.hss_dim >= 1
            assert c.min_compact_factors in (0, 1)
            assert c.rep_dim <= 64

    def test_deterministic(self):
        assert list(iter_cases(32)) == list(iter_cases(32))

    def test_json_export_field_order(self):
        records = catalog_json(8)
        assert len(records) == len(GOLDEN_CATALOG_8)
        for rec in records:
            assert list(rec) == [
                "case",
                "params",
                "hss_dim",
                "rep_dim",
                "duality",
                "min_compact_factors",
            ]
        # JSON round-trip preserves everything
        assert json.loads(json.dumps(records)) == records

    def test_empty_below_minimum(self):
        assert list(iter_cases(1)) == []
        # rep_dim 2 admits exactly the A1 row
        only = list(iter_cases(2))
        assert len(only) == 1 and only[0].label.family == "A1"


def seed_case_params(max_rep_dim):
    """The parameters of every case, per family in catalog order, from the
    nested loops that enumerated the catalog before the family grid."""
    rows = {family: [] for family in FAMILIES}
    if max_rep_dim < 2:
        return rows
    rows["A1"].append(())
    if max_rep_dim >= 8:
        rows["D4"].append(())
    for n in range(3, max_rep_dim + 1):
        rows["I"] += [(p, n) for p in range(1, n // 2 + 1)]
    n = 4
    while n * (n - 1) // 2 <= max_rep_dim:
        for c in range(2, n - 1):
            if math.comb(n, c) <= max_rep_dim:
                rows["Iprime"].append((n, c))
        n += 1
    for r in range(2, max_rep_dim // 2 + 1):
        if r != 4:
            rows["II"].append((r,))
    for family in ("III1", "III2"):
        for r in range(2, max_rep_dim // 2 + 1):
            rows[family].append((r,))
    p = 3
    while 2 ** (p - 1) <= max_rep_dim:
        if p != 4:
            rows["IV1even"].append((p,))
        p += 1
    p = 2
    while 2**p <= max_rep_dim:
        rows["IV1odd"].append((p,))
        p += 1
    r = 3
    while 2 ** (r - 1) <= max_rep_dim:
        if r != 4:
            rows["IV2"].append((r,))
        r += 1
    return rows


def grid_case_params(grids):
    """The parameters of every case of a family grid, per family."""
    return {
        g.family: list(zip(*g.params.T.tolist())) if g.params.shape[1] else [()] * len(g.params)
        for g in grids
    }


class TestFamilyGrid:
    def test_matches_seed_loops(self):
        for rep_max in range(1, 301):
            grids = family_grid(rep_max)
            assert [g.family for g in grids] == list(FAMILIES)
            assert all(g.params.dtype == g.hss_dim.dtype == g.rep_dim.dtype == np.int64 for g in grids)
            assert grid_case_params(grids) == seed_case_params(rep_max), rep_max
        labels = [CaseLabel(f, t) for f, rows in seed_case_params(300).items() for t in rows]
        assert np.concatenate([g.hss_dim for g in grids]).tolist() == [hss_dimension(x) for x in labels]
        assert np.concatenate([g.rep_dim for g in grids]).tolist() == [rep_dimension(x) for x in labels]

    @pytest.mark.parametrize("piece", [1, 7, 4096])
    def test_pieces_cover_the_grid(self, piece):
        # iter_cases reads the grid in pieces; together they are the grid
        for rep_max in (1, 2, 3, 9, 300):
            got = {}
            for g in _grid_pieces(rep_max, piece):
                got.setdefault(g.family, []).append(np.column_stack([g.params, g.hss_dim, g.rep_dim]))
            grids = family_grid(rep_max)
            assert list(got) == [g.family for g in grids if g.family != "I" or g.rep_dim.size]
            for g in grids:
                want = np.column_stack([g.params, g.hss_dim, g.rep_dim])
                assert np.array_equal(np.concatenate(got.get(g.family, [want])), want)

    def test_label(self):
        grid = family_grid(8)[FAMILIES.index("I")]
        assert grid.label(4) == case("I", p=2, n=5)

    def test_records_match_objects(self):
        # the export's records and the validated objects are one enumeration
        want = [
            {
                "case": c.label.family,
                "params": c.label.params_dict(),
                "hss_dim": c.hss_dim,
                "rep_dim": c.rep_dim,
                "duality": c.duality,
                "min_compact_factors": c.min_compact_factors,
            }
            for c in iter_cases(128)
        ]
        assert len(want) == sum(map(len, seed_case_params(128).values()))
        assert list(iter_cases(128, records=True)) == want
        assert catalog_json(128) == want
