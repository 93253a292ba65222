import functools
import json
import math

import numpy as np
import pytest

from agdim.satake import (
    FAMILIES,
    NON_SELF_DUAL,
    ORTHOGONAL,
    SYMPLECTIC,
    CaseLabel,
    case,
    catalog_json,
    duality_type,
    family_grid,
    hss_dimension,
    iter_cases,
    min_compact_factors,
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
        d4 = case("D4")
        assert (hss_dimension(d4), rep_dimension(d4), duality_type(d4)) == (6, 8, ORTHOGONAL)


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
        assert [tuple(rec.values()) for rec in iter_cases(8)] == GOLDEN_CATALOG_8

    def test_invariants(self):
        for rec in iter_cases(64):
            assert rec["rep_dim"] >= 2
            assert rec["hss_dim"] >= 1
            assert rec["min_compact_factors"] in (0, 1)
            assert rec["rep_dim"] <= 64

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
        assert len(only) == 1 and only[0]["case"] == "A1"


@functools.cache
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
    """The parameters of every case of the family grids, per family, the
    pieces of a family joined in order."""
    rows = {}
    for g in grids:
        rows.setdefault(g.family, []).extend(map(tuple, g.params.tolist()))
    return rows


class TestFamilyGrid:
    def test_matches_seed_loops(self):
        grids = list(family_grid(300))
        assert all(g.params.dtype == g.hss_dim.dtype == g.rep_dim.dtype == np.int64 for g in grids)
        assert list(grid_case_params(grids).items()) == list(seed_case_params(300).items())
        labels = [CaseLabel(f, t) for f, rows in seed_case_params(300).items() for t in rows]
        assert np.concatenate([g.hss_dim for g in grids]).tolist() == [hss_dimension(x) for x in labels]
        assert np.concatenate([g.rep_dim for g in grids]).tolist() == [rep_dimension(x) for x in labels]

    @pytest.mark.parametrize("piece", [1, 7, 4096])
    def test_pieces_cover_the_grid(self, piece):
        # family I comes in pieces of whole values of n, about `piece` cases
        # each (none below rep_max 3); together they are the seed's family I
        for rep_max in range(1, 301):
            grids = list(family_grid(rep_max, piece))
            pieces = [g for g in grids if g.family == "I"]
            assert all(g.rep_dim.size for g in pieces)
            assert all(g.rep_dim[0] > h.rep_dim[-1] for h, g in zip(pieces, pieces[1:]))
            assert all(g.rep_dim.size <= piece + g.rep_dim[-1] for g in pieces)
            assert list(grid_case_params(grids).items()) == [
                (f, rows) for f, rows in seed_case_params(rep_max).items() if f != "I" or rows
            ], (piece, rep_max)

    def test_label(self):
        grid = next(g for g in family_grid(8) if g.family == "I")
        assert grid.label(4) == case("I", p=2, n=5)

    def test_records_match_rule_functions(self):
        # the export's records against the per-label rules on the seed loops
        want = [
            {
                "case": label.family,
                "params": label.params_dict(),
                "hss_dim": hss_dimension(label),
                "rep_dim": rep_dimension(label),
                "duality": duality_type(label),
                "min_compact_factors": min_compact_factors(label),
            }
            for label in (
                CaseLabel(f, t) for f, rows in seed_case_params(128).items() for t in rows
            )
        ]
        assert list(iter_cases(128)) == want
        assert catalog_json(128) == want
