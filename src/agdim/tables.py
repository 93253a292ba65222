"""Labeled dimension tables: structure, rendering, and frozen fixtures.

A :class:`DimensionTable` keeps the genera as columns and one row per
quantity, matching how the summary tables are usually displayed; CSV and JSON
output additionally provide a per-genus record view (genus first, then the
quantities in row order).

The fixtures at the bottom are frozen transcription constants: they are
deliberately literal, never computed, so that ``tables --check`` compares the
live formulas and recursions against an independent record.  Any mismatch is
reported cell by cell.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .arith import GenusValue

__all__ = [
    "TableRow",
    "DimensionTable",
    "FIXTURE_AG",
    "FIXTURE_MG",
    "check_against_fixture",
    "check_all_tables",
]


@dataclass(frozen=True)
class TableRow:
    key: str
    label: str
    provenance: str
    cells: tuple[GenusValue, ...]

    def cell(self, g: int) -> GenusValue:
        for c in self.cells:
            if c.g == g:
                return c
        raise KeyError(f"row {self.key} has no cell for g={g}")


@dataclass(frozen=True)
class DimensionTable:
    name: str
    title: str
    genera: tuple[int, ...]
    rows: tuple[TableRow, ...]

    def row(self, key: str) -> TableRow:
        for r in self.rows:
            if r.key == key:
                return r
        raise KeyError(f"table {self.name} has no row {key!r}")

    def to_markdown(self) -> str:
        header = ["quantity"] + [f"g={g}" for g in self.genera]
        lines = [
            f"### {self.title}",
            "",
            "| " + " | ".join(header) + " |",
            "| " + " | ".join(["---"] * len(header)) + " |",
        ]
        for r in self.rows:
            cells = [r.label] + [r.cell(g).render() for g in self.genera]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["g"] + [r.key for r in self.rows])
        for g in self.genera:
            writer.writerow([g] + [r.cell(g).render() for r in self.rows])
        return buf.getvalue()

    def to_jsonable(self) -> dict:
        return {
            "schema": "agdim.dimension-table/1",
            "name": self.name,
            "title": self.title,
            "genera": list(self.genera),
            "rows": [
                {
                    "key": r.key,
                    "label": r.label,
                    "provenance": r.provenance,
                    "cells": [
                        {"g": c.g, "value": c.value, "kind": c.kind} for c in r.cells
                    ],
                }
                for r in self.rows
            ],
            "records": [
                {
                    "g": g,
                    **{
                        r.key: {"value": r.cell(g).value, "kind": r.cell(g).kind}
                        for r in self.rows
                    },
                }
                for g in self.genera
            ],
        }


# ---------------------------------------------------------------------------
# frozen fixtures (transcribed by hand; do not compute)
# ---------------------------------------------------------------------------

# (value, kind) per genus; kinds must match as well as values.
FIXTURE_AG: dict[str, dict[int, tuple[int, str]]] = {
    "dmcg_ag": {
        3: (2, "exact"),
        4: (3, "exact"),
        5: (4, "exact"),
        6: (5, "exact"),
        15: (14, "exact"),
        16: (15, "exact"),
        17: (16, "exact"),
        18: (17, "exact"),
        100: (99, "exact"),
    },
    "dmc_ag": {
        3: (2, "exact"),
        4: (3, "exact"),
        5: (4, "exact"),
        6: (5, "exact"),
        15: (14, "exact"),
        16: (16, "exact"),
        17: (16, "exact"),
        18: (20, "exact"),
        100: (625, "exact"),
    },
    "keel_sadun": {
        3: (2, "upper-bound"),
        4: (5, "upper-bound"),
        5: (9, "upper-bound"),
        6: (14, "upper-bound"),
        15: (104, "upper-bound"),
        16: (119, "upper-bound"),
        17: (135, "upper-bound"),
        18: (152, "upper-bound"),
        100: (4949, "upper-bound"),
    },
}

FIXTURE_MG: dict[str, dict[int, tuple[int, str]]] = {
    "dmcg_mgct": {
        g: (2, "lower-bound") for g in (3, 4, 5, 6, 15, 16, 17, 18, 23, 24, 100)
    },
    "dmc_mgct": {
        3: (2, "exact"),
        4: (4, "exact"),
        5: (5, "exact"),
        6: (7, "exact"),
        15: (20, "exact"),
        16: (22, "exact"),
        17: (23, "exact"),
        18: (25, "exact"),
        23: (32, "exact"),
        24: (34, "lower-bound"),
        100: (148, "lower-bound"),
    },
    "jac_upper": {
        3: (2, "upper-bound"),
        4: (3, "upper-bound"),
        5: (4, "upper-bound"),
        6: (5, "upper-bound"),
        15: (14, "upper-bound"),
        16: (16, "upper-bound"),
        17: (16, "upper-bound"),
        18: (20, "upper-bound"),
        23: (30, "upper-bound"),
        24: (36, "upper-bound"),
        100: (196, "upper-bound"),
    },
    "jac_lower": {
        3: (2, "lower-bound"),
        4: (2, "lower-bound"),
        5: (3, "lower-bound"),
        6: (4, "lower-bound"),
        15: (10, "lower-bound"),
        16: (10, "lower-bound"),
        17: (11, "lower-bound"),
        18: (12, "lower-bound"),
        23: (15, "lower-bound"),
        24: (16, "lower-bound"),
        100: (66, "lower-bound"),
    },
    "dmcg_mg": {
        g: (1, "lower-bound") for g in (3, 4, 5, 6, 15, 16, 17, 18, 23, 24, 100)
    },
    "mg_lower": {
        3: (1, "lower-bound"),
        4: (1, "lower-bound"),
        5: (1, "lower-bound"),
        6: (1, "lower-bound"),
        15: (2, "lower-bound"),
        16: (3, "lower-bound"),
        17: (3, "lower-bound"),
        18: (3, "lower-bound"),
        23: (3, "lower-bound"),
        24: (3, "lower-bound"),
        100: (5, "lower-bound"),
    },
    "mg_upper": {
        3: (1, "upper-bound"),
        4: (2, "upper-bound"),
        5: (3, "upper-bound"),
        6: (4, "upper-bound"),
        15: (13, "upper-bound"),
        16: (14, "upper-bound"),
        17: (15, "upper-bound"),
        18: (16, "upper-bound"),
        23: (21, "upper-bound"),
        24: (22, "upper-bound"),
        100: (98, "upper-bound"),
    },
}

_FIXTURES = {"ag": FIXTURE_AG, "mg": FIXTURE_MG}


def check_against_fixture(table: DimensionTable) -> list[str]:
    """Compare every computed cell with the frozen fixture.  Returns a list
    of human-readable mismatch descriptions, one per offending cell or
    missing row (empty means the table reproduces the fixture exactly).  A
    missing cell is reported, not raised.  Rows absent from the fixture
    (e.g. conjectural rows) are ignored."""
    fixture = _FIXTURES.get(table.name)
    if fixture is None:
        raise KeyError(f"no fixture for table {table.name!r}")
    problems: list[str] = []
    for key, expected_cells in fixture.items():
        try:
            row = table.row(key)
        except KeyError:
            problems.append(f"table {table.name}: row {key!r} missing")
            continue
        for g, (value, kind) in expected_cells.items():
            try:
                cell = row.cell(g)
            except KeyError:
                problems.append(f"table {table.name}, row {key}, g={g}: cell missing")
                continue
            if (cell.value, cell.kind) != (value, kind):
                problems.append(
                    f"table {table.name}, row {key}, g={g}: computed "
                    f"({cell.value}, {cell.kind}), fixture ({value}, {kind})"
                )
    return problems


def check_all_tables(tables: dict[str, DimensionTable]) -> list[str]:
    problems: list[str] = []
    for name in sorted(tables):
        problems.extend(check_against_fixture(tables[name]))
    return problems
