import functools
import json
import math
import re

import numpy as np
import pytest

from agdim import satake
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
    record,
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
        assert duality_type(case("IV1even", p=6)) == SYMPLECTIC
        assert duality_type(case("IV1even", p=8)) == ORTHOGONAL
        assert duality_type(case("IV1even", p=3)) == NON_SELF_DUAL
        assert duality_type(case("IV1even", p=5)) == NON_SELF_DUAL
        assert duality_type(case("IV1even", p=7)) == NON_SELF_DUAL

    def test_iv1odd_mod4(self):
        assert duality_type(case("IV1odd", p=2)) == SYMPLECTIC
        assert duality_type(case("IV1odd", p=3)) == ORTHOGONAL
        assert duality_type(case("IV1odd", p=4)) == ORTHOGONAL
        assert duality_type(case("IV1odd", p=5)) == SYMPLECTIC
        assert duality_type(case("IV1odd", p=6)) == SYMPLECTIC
        assert duality_type(case("IV1odd", p=7)) == ORTHOGONAL

    def test_iv2_mod4(self):
        assert duality_type(case("IV2", r=3)) == NON_SELF_DUAL
        assert duality_type(case("IV2", r=5)) == NON_SELF_DUAL
        assert duality_type(case("IV2", r=6)) == SYMPLECTIC
        assert duality_type(case("IV2", r=7)) == NON_SELF_DUAL
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


KNOWN = "('A1', 'D4', 'I', 'Iprime', 'II', 'III1', 'III2', 'IV1even', 'IV1odd', 'IV2')"
# (family, params, message): params as a dict go through case(), as a tuple
# through CaseLabel()
REJECTED = [
    ("I", {"p": 0, "n": 5}, "case I requires 1 <= p <= floor(n/2) (got p=0, n=5)"),
    ("I", {"p": 3, "n": 5}, "case I requires 1 <= p <= floor(n/2) (got p=3, n=5)"),
    ("I", {"p": 1, "n": 2}, "case I requires n >= 3 (got n=2)"),
    ("Iprime", {"n": 3, "c": 2}, "case Iprime requires n >= 4 (got n=3)"),
    ("Iprime", {"n": 6, "c": 1}, "case Iprime requires 2 <= c <= n-2 (got c=1, n=6)"),
    ("Iprime", {"n": 6, "c": 5}, "case Iprime requires 2 <= c <= n-2 (got c=5, n=6)"),
    ("II", {"r": 1}, "case II requires r >= 2 with r != 4 (got r=1)"),
    ("II", {"r": 4}, "case II requires r >= 2 with r != 4 (got r=4)"),
    ("III1", {"r": 1}, "case III1 requires r >= 2 (got r=1)"),
    ("III2", {"r": 0}, "case III2 requires r >= 2 (got r=0)"),
    ("IV1even", {"p": 2}, "case IV1even requires p >= 3 with p != 4 (got p=2)"),
    ("IV1even", {"p": 4}, "case IV1even requires p >= 3 with p != 4 (got p=4)"),
    ("IV1odd", {"p": 1}, "case IV1odd requires p >= 2 (got p=1)"),
    ("IV2", {"r": 2}, "case IV2 requires r >= 3 with r != 4 (got r=2)"),
    ("IV2", {"r": 4}, "case IV2 requires r >= 3 with r != 4 (got r=4)"),
    ("V", {"r": 2}, f"unknown case family 'V' (known: {KNOWN})"),
    ("V", (2,), f"unknown case family 'V' (known: {KNOWN})"),
    ("I", {"p": 1}, "case I takes parameters ('p', 'n') (got ('p',))"),
    ("I", (1,), "case I takes parameters ('p', 'n') (got (1,))"),
    ("A1", {"r": 2}, "case A1 takes parameters () (got ('r',))"),
    ("II", (), "case II takes parameters ('r',) (got ())"),
    ("II", (5.5,), "case II takes integer parameters (got r=5.5)"),
    ("I", (1.5, 4), "case I takes integer parameters (got p=1.5)"),
    ("Iprime", {"n": 6, "c": 3.0}, "case Iprime takes integer parameters (got c=3.0)"),
    ("IV1odd", {"p": "3"}, "case IV1odd takes integer parameters (got p='3')"),
    ("III1", (True,), "case III1 takes integer parameters (got r=True)"),
]


class TestValidation:
    @pytest.mark.parametrize(
        "family,params,message",
        REJECTED,
        ids=[f"{family}-params{i}" for i, (family, _, _) in enumerate(REJECTED)],
    )
    def test_rejects_out_of_range(self, family, params, message):
        with pytest.raises(ValueError) as err:
            if isinstance(params, dict):
                case(family, **params)
            else:
                CaseLabel(family, params)
        assert str(err.value) == message

    def test_accepts_numpy_integers(self):
        label = case("Iprime", n=np.int64(6), c=np.int32(3))
        assert label == case("Iprime", n=6, c=3)
        assert (hss_dimension(label), rep_dimension(label)) == (5, 20)
        assert str(CaseLabel("II", (np.int64(5),))) == "II(r=5)"
        # stored as Python ints, so the label's values serialize
        for label in (label, case("II", r=np.int64(5)), CaseLabel("I", (np.int64(2), np.uint8(7)))):
            assert all(type(p) is int for p in label.params)
            assert type(hss_dimension(label)) is int
            json.dumps(label.params_dict())

    def test_label_str(self):
        assert str(case("I", p=2, n=5)) == "I(p=2, n=5)"
        assert str(case("A1")) == "A1"


class TestCatalog:
    def test_golden_fixture(self):
        assert [tuple(rec.values()) for rec in catalog_json(8)] == GOLDEN_CATALOG_8
        # each row holds the same values as its record, leaves in document order
        assert [
            (case, dict(zip(satake._FAMILY[case].params, params)), hss, rep, duality, flag)
            for (case, duality), (*params, hss, rep, flag) in iter_cases(8)
        ] == GOLDEN_CATALOG_8

    def test_invariants(self):
        records = catalog_json(64)
        assert len(records) == len(list(iter_cases(64))) > 0
        for rec in records:
            assert rec["rep_dim"] >= 2
            assert rec["hss_dim"] >= 1
            assert rec["min_compact_factors"] in (0, 1)
            assert rec["rep_dim"] <= 64

    def test_rows_hold_exact_ints_and_strs(self):
        # the export fills its templates with %s only from exact ints and
        # strs, so every row of the stream must take that path
        rows = list(iter_cases(300))
        assert len(rows) == 23030
        for layout, ints in rows:
            assert type(layout) is tuple and len(layout) == 2
            assert all(type(x) is str for x in layout)
            assert type(ints) is tuple
            assert all(type(x) is int for x in ints)

    @pytest.mark.parametrize("rep_max", [1, 2, 8, 300])
    def test_catalog_json_is_the_records_of_the_rows(self, rep_max):
        assert catalog_json(rep_max) == [record(*row) for row in iter_cases(rep_max)]

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
        assert list(iter_cases(1)) == [] and catalog_json(1) == []
        # rep_dim 2 admits exactly the A1 row
        assert list(iter_cases(2)) == [(("A1", SYMPLECTIC), (1, 2, 0))]
        assert catalog_json(2) == [
            {
                "case": "A1",
                "params": {},
                "hss_dim": 1,
                "rep_dim": 2,
                "duality": SYMPLECTIC,
                "min_compact_factors": 0,
            }
        ]


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
    def test_pieces_cover_the_grid(self, monkeypatch, piece):
        # family I comes in pieces of whole values of n, about `piece` cases
        # each (none below rep_max 3); together they are the seed's family I
        monkeypatch.setattr(satake, "_PIECE", piece)
        for rep_max in range(1, 301):
            grids = list(family_grid(rep_max))
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
        assert [record(*row) for row in iter_cases(128)] == want
        assert catalog_json(128) == want


def docstring_table():
    """(family, parameter names, constraint) of each row of the family table
    in the module docstring, cut at the columns its ``====`` rules mark."""
    lines = satake.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("=====")]
    assert len(rules) == 3
    (a, b), (c, d), (e, _) = (m.span() for m in re.finditer("=+", lines[rules[0]]))
    rows = []
    for line in lines[rules[1] + 1 : rules[2]]:
        family, params, constraint = line[a:b].strip(), line[c:d].strip(), line[e:].strip()
        names = () if params == "(none)" else tuple(params.split("  ")[0].split(", "))
        rows.append((family, names, constraint))
    return rows


class TestDocstringTable:
    def test_family_order(self):
        assert tuple(row[0] for row in docstring_table()) == FAMILIES

    def test_parameter_names(self):
        labels = {g.family: g.label(0) for g in family_grid(64) if g.params.shape[0]}
        assert set(labels) == set(FAMILIES)
        for family, names, _ in docstring_table():
            assert tuple(labels[family].params_dict()) == names, family

    def test_one_parameter_constraints(self):
        one = [row for row in docstring_table() if len(row[1]) == 1]
        assert [row[0] for row in one] == ["II", "III1", "III2", "IV1even", "IV1odd", "IV2"]
        for family, (name,), constraint in one:
            m = re.fullmatch(rf"{name} >= (\d+)(, {name} != 4)?", constraint)
            assert m, (family, constraint)
            first, absorbed = int(m[1]), m[2] is not None
            with pytest.raises(ValueError):
                case(family, **{name: first - 1})
            case(family, **{name: first})
            if absorbed:
                with pytest.raises(ValueError):
                    case(family, **{name: 4})
            else:
                case(family, **{name: 4})
