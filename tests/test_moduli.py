import pytest

from agdim import moduli
from agdim.arith import dmax
from agdim.moduli import (
    AG_TABLE_GENERA,
    MG_TABLE_GENERA,
    HodgeGeneric,
    ProductWithPoint,
    SpecialFamily,
    assemble_tables,
    dmc_ag,
    dmc_ag_range,
    dmc_mgct,
    jacobian_bounds,
    maxvar_case,
    mg_bounds,
    mgct_interior_bound_holds,
)
from agdim.pairs import mdsp_star_table
from agdim.tables import check_all_tables


class TestDmcAg:
    def test_genus_five(self):
        result = dmc_ag(5)
        assert result.dmc == 4
        assert result.case == "ii"
        assert result.attained_by == (HodgeGeneric(5),)

    def test_genus_seventeen_two_ways(self):
        result = dmc_ag(17)
        assert result.dmc == 16
        assert result.case == "v"
        assert result.attained_by == (
            HodgeGeneric(17),
            ProductWithPoint(SpecialFamily.unitary(2, 8)),
        )

    def test_genus_zero_and_one(self):
        assert dmc_ag(0).dmc == 0
        assert dmc_ag(1).dmc == 0
        assert dmc_ag(1).case == "o"

    def test_genus_two_two_ways(self):
        result = dmc_ag(2)
        assert result.dmc == 1
        assert result.case == "i"
        assert SpecialFamily.quaternionic_curve() in result.attained_by
        assert HodgeGeneric(2) in result.attained_by

    def test_even_special_family(self):
        result = dmc_ag(16)
        assert result.dmc == 16
        assert result.attained_by == (SpecialFamily.unitary(2, 8),)
        assert result.case == "iii"

    def test_odd_product(self):
        result = dmc_ag(19)
        assert result.dmc == 20
        assert result.attained_by == (ProductWithPoint(SpecialFamily.unitary(2, 9)),)
        assert result.case == "iv"

    def test_recursion_equals_closed_form_to_500(self):
        for result in dmc_ag_range(500)[1:]:
            assert result.dmc == dmax(result.g)

    def test_attainment_tags_to_500(self):
        for result in dmc_ag_range(500)[1:]:
            assert result.attained_by
            for descriptor in result.attained_by:
                assert descriptor.dimension == result.dmc
            expected_multiplicity = 2 if result.g in (2, 17) else 1
            assert len(result.attained_by) == expected_multiplicity
            if isinstance(result.attained_by[0], ProductWithPoint):
                assert result.attained_by[0].genus == result.g

    def test_monotone(self):
        values = [r.dmc for r in dmc_ag_range(500)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_prefix_max_recursion_matches_definition(self):
        M = mdsp_star_table(600)
        literal = [
            max([M[g]] + [g - g_prime - 1 + M[g_prime] for g_prime in range(g)])
            for g in range(601)
        ]
        assert list(moduli._table(600)[:601]) == literal

    def test_one_growing_dp_table(self, monkeypatch):
        n = 400
        builds = []

        def counting_table(g_max):
            builds.append(g_max)
            return mdsp_star_table(g_max)

        monkeypatch.setattr(moduli, "_DMC", ())
        monkeypatch.setattr(moduli, "mdsp_star_table", counting_table)
        queried = [dmc_ag(g) for g in range(n + 1)]
        assert len(builds) <= n.bit_length() + 1
        assert queried == dmc_ag_range(n)

    def test_rebuild_frees_old_tables_first(self, monkeypatch):
        # A rebuild holds the new table only, not the old one beside it.
        held = []

        def recording_table(g_max):
            held.append((g_max, moduli._DMC))
            return mdsp_star_table(g_max)

        monkeypatch.setattr(moduli, "_DMC", ())
        monkeypatch.setattr(moduli, "mdsp_star_table", recording_table)
        dmc_ag(100)
        dmc_ag(101)  # rebuilds to 202
        assert held == [(100, ()), (202, ())]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dmc_ag(-1)

    def test_case_labels(self):
        assert maxvar_case(1) == "o"
        assert maxvar_case(2) == "i"
        assert maxvar_case(7) == "ii"
        assert maxvar_case(16) == "iii"
        assert maxvar_case(19) == "iv"
        assert maxvar_case(17) == "v"


class TestDmcMgct:
    def test_exact_values(self):
        assert dmc_mgct(6).exact == 7
        assert dmc_mgct(23).exact == 32
        assert dmc_mgct(2).exact == 1
        assert dmc_mgct(3).exact == 2
        for g in range(2, 24):
            assert dmc_mgct(g).exact == (3 * g) // 2 - 2

    def test_open_beyond_23(self):
        result = dmc_mgct(24)
        assert result.open_question
        assert result.exact is None
        assert result.lower == 34
        assert result.upper == 36  # sharper than 2g-4 = 44 here
        assert dmc_mgct(100).lower == 148
        assert dmc_mgct(100).upper == 196

    def test_improved_upper_window(self):
        assert dmc_mgct(25).upper == 36
        assert dmc_mgct(26).upper == 42
        assert dmc_mgct(28).upper == 49
        assert dmc_mgct(29).upper == 54  # back to 2g-4 beyond the window

    def test_bounds_consistent(self):
        for g in range(24, 200):
            r = dmc_mgct(g)
            assert r.lower <= r.upper

    def test_interior_hypothesis(self):
        for g in range(4, 24):
            assert mgct_interior_bound_holds(g)
        assert not mgct_interior_bound_holds(24)

    def test_recursion_table_refuses_a_failing_hypothesis(self, monkeypatch):
        # The hypothesis holds at every g of the table, so only a fault
        # reaches the table's self-check; cor-C checks it on its own.
        monkeypatch.setattr(moduli, "mgct_interior_bound_holds", lambda g: g != 9)
        with pytest.raises(RuntimeError, match="fails at g=9$"):
            moduli._mgct_recursion_table()

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            dmc_mgct(1)

    def test_genus_value_rendering(self):
        assert dmc_mgct(23).as_genus_value().render() == "32"
        assert dmc_mgct(24).as_genus_value().render() == ">=34"


class TestJacobianBounds:
    def test_table_values(self):
        assert jacobian_bounds(15) == (10, 14)
        assert jacobian_bounds(100) == (66, 196)
        assert jacobian_bounds(24) == (16, 36)

    def test_small_genus_upper_is_g_minus_one(self):
        for g in range(2, 16):
            lower, upper = jacobian_bounds(g)
            assert upper == g - 1

    def test_ordering_over_wide_range(self):
        for g in range(2, 10_001):
            lower, upper = jacobian_bounds(g)
            assert lower <= upper


class TestMgBounds:
    def test_table_values(self):
        assert mg_bounds(16) == (3, 14)
        assert mg_bounds(100) == (5, 98)
        assert mg_bounds(3) == (1, 1)

    def test_genus_two_affine(self):
        assert mg_bounds(2) == (0, 0)

    def test_cover_threshold(self):
        # a compact d-fold exists whenever 2^(d+1) <= g
        for g in range(3, 2000):
            lower, _ = mg_bounds(g)
            assert 2 ** (lower + 1) <= g or lower == 1
            assert 2 ** (lower + 2) > g


class TestAssembledTables:
    def test_fixture_check_clean(self):
        assert check_all_tables(assemble_tables()) == []

    def test_specific_cells(self):
        tables = assemble_tables()
        assert tables["ag"].row("dmc_ag").cell(18).value == 20
        assert tables["mg"].row("dmc_mgct").cell(17).value == 23
        assert tables["mg"].row("jac_lower").cell(5).value == 3
        assert tables["mg"].row("dmc_mgct").cell(24).kind == "lower-bound"

    def test_genera(self):
        tables = assemble_tables()
        assert tables["ag"].genera == AG_TABLE_GENERA
        assert tables["mg"].genera == MG_TABLE_GENERA

    def test_conjectural_rows_opt_in(self):
        plain = assemble_tables()
        extra = assemble_tables(conjectural=True)
        plain_keys = {r.key for r in plain["mg"].rows}
        extra_keys = {r.key for r in extra["mg"].rows}
        assert "dmc_mgct_conjectural" not in plain_keys
        assert {"dmc_mgct_conjectural", "jac_upper_conjectural"} <= extra_keys
        assert "CONJECTURAL" in extra["mg"].row("dmc_mgct_conjectural").label
        # conjectural rows do not interfere with the fixture check
        assert check_all_tables(extra) == []
        assert extra["mg"].row("dmc_mgct_conjectural").cell(100).value == 148
        assert extra["mg"].row("jac_upper_conjectural").cell(100).value == 99
