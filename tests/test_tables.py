import csv
import io
import json

import jsonschema
import pytest

import agdim.cli as cli
from agdim.arith import GenusValue
from agdim.cli import _dumps
from agdim.moduli import assemble_tables
from agdim.schemas import DIMENSION_TABLE_SCHEMA
from agdim.tables import FIXTURE_AG, FIXTURE_MG, DimensionTable, TableRow, check_against_fixture


@pytest.fixture(scope="module")
def tables():
    return assemble_tables()


class TestMarkdown:
    def test_header_lists_genera(self, tables):
        md = tables["ag"].to_markdown()
        header = md.splitlines()[2]
        for g in (3, 4, 5, 6, 15, 16, 17, 18, 100):
            assert f"g={g}" in header

    def test_bound_prefixes_rendered(self, tables):
        md = tables["mg"].to_markdown()
        assert ">=34" in md
        assert "<=196" in md


class TestCsv:
    def test_genus_first_then_row_keys(self, tables):
        reader = csv.reader(io.StringIO(tables["ag"].to_csv()))
        rows = list(reader)
        assert rows[0] == ["g", "dmcg_ag", "dmc_ag", "keel_sadun"]
        assert rows[1] == ["3", "2", "2", "<=2"]
        assert rows[-1] == ["100", "99", "625", "<=4949"]

    def test_mixed_kind_cells(self, tables):
        text = tables["mg"].to_csv()
        row24 = next(line for line in text.splitlines() if line.startswith("24,"))
        assert ">=34" in row24


class TestJson:
    def test_schema_valid(self, tables):
        for table in tables.values():
            doc = json.loads(_dumps(table.to_jsonable()))
            jsonschema.validate(doc, DIMENSION_TABLE_SCHEMA)

    def test_records_orientation(self, tables):
        doc = tables["mg"].to_jsonable()
        rec24 = next(r for r in doc["records"] if r["g"] == 24)
        assert rec24["dmc_mgct"] == {"value": 34, "kind": "lower-bound"}
        assert rec24["jac_upper"] == {"value": 36, "kind": "upper-bound"}

    def test_deterministic(self, tables):
        assert _dumps(tables["ag"].to_jsonable()) == _dumps(tables["ag"].to_jsonable())


class TestFixtureCheck:
    def test_clean_tables_pass(self, tables):
        assert check_against_fixture(tables["ag"]) == []
        assert check_against_fixture(tables["mg"]) == []

    def test_mismatch_names_the_cell(self, tables):
        original = tables["ag"]
        tampered_rows = []
        for row in original.rows:
            if row.key == "dmc_ag":
                cells = tuple(
                    GenusValue(c.g, c.value + 1, c.kind) if c.g == 18 else c
                    for c in row.cells
                )
                tampered_rows.append(
                    TableRow(row.key, row.label, row.provenance, cells)
                )
            else:
                tampered_rows.append(row)
        tampered = DimensionTable(
            original.name, original.title, original.genera, tuple(tampered_rows)
        )
        problems = check_against_fixture(tampered)
        assert len(problems) == 1
        assert "row dmc_ag" in problems[0] and "g=18" in problems[0]
        assert "21" in problems[0] and "20" in problems[0]

    def test_missing_row_reported(self, tables):
        original = tables["ag"]
        truncated = DimensionTable(
            original.name, original.title, original.genera, original.rows[:2]
        )
        problems = check_against_fixture(truncated)
        assert any("keel_sadun" in p and "missing" in p for p in problems)

    def test_missing_cell_reported(self, tables, capsys, monkeypatch):
        # A row that lacks a fixture genus is one problem, not a KeyError,
        # so `tables --check` names it and exits 1.
        original = tables["ag"]
        rows = tuple(
            TableRow(r.key, r.label, r.provenance, r.cells[:-1]) if r.key == "dmc_ag" else r
            for r in original.rows
        )
        dropped = DimensionTable(original.name, original.title, original.genera, rows)
        assert check_against_fixture(dropped) == ["table ag, row dmc_ag, g=100: cell missing"]
        monkeypatch.setattr(cli, "assemble_tables", lambda conjectural: {**tables, "ag": dropped})
        assert cli.main(["tables", "--check"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == (
            "table ag, row dmc_ag, g=100: cell missing\n"
            "fixture check FAILED: 1 cell mismatch(es)\n",
            "",
        )

    @pytest.mark.parametrize("conjectural", [False, True])
    def test_rows_and_genera_match_fixtures(self, conjectural):
        # check_against_fixture skips rows without a fixture, so a new
        # non-conjectural row would go unchecked unless it is listed here.
        built = assemble_tables(conjectural=conjectural)
        for name, fixture in (("ag", FIXTURE_AG), ("mg", FIXTURE_MG)):
            keys = [r.key for r in built[name].rows]
            checked = [k for k in keys if not k.endswith("_conjectural")]
            assert checked == list(fixture)
            assert keys[: len(checked)] == checked  # conjectural rows come last
            for cells in fixture.values():
                assert list(cells) == list(built[name].genera)
        assert len(built["mg"].rows) - len(FIXTURE_MG) == (2 if conjectural else 0)

    def test_unknown_table_rejected(self, tables):
        other = DimensionTable("misc", "t", (3,), ())
        with pytest.raises(KeyError):
            check_against_fixture(other)
