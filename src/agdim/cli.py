"""Command-line surface: compute, tabulate, verify, explain, export.

Subcommands
-----------
``dmax A..B``      genus bound over a range (markdown/csv/json)
``tables``         the two summary tables; ``--check`` compares every cell
                   against the frozen fixtures and fails on any mismatch
``verify CLAIM``   run one exhaustive claim verifier, JSON report on stdout
``explain G``      attainment narrative for one genus
``catalog``        classification catalog export as JSON

Exit codes: 0 success or verified pass; 1 claim failure or fixture mismatch;
2 usage error.  All output is deterministic unless ``--timestamp`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from datetime import datetime, timezone
from itertools import islice
from typing import Iterator, TextIO

from . import __version__
from .arith import dmax
from .moduli import (
    AgResult,
    HodgeGeneric,
    ProductWithPoint,
    SpecialFamily,
    assemble_tables,
    dmc_ag,
)
from .satake import iter_cases
from .schemas import SCHEMAS_BY_COMMAND
from .tables import check_all_tables
from .verify import REGISTRY, RangeParam, run_verifier

_FORMATS = ("markdown", "csv", "json")

_CASE_NARRATIVE = {
    "o": "the moduli space carries only points as compact subvarieties",
    "i": "maximal compact subvarieties are Hodge-generic curves or "
    "quaternionic Shimura curves (two distinct constructions)",
    "ii": "all maximal-dimensional compact subvarieties are Hodge-generic, "
    "e.g. components of very general complete intersections",
    "iii": "all maximal-dimensional compact subvarieties are unitary-family "
    "special subvarieties",
    "iv": "all maximal-dimensional compact subvarieties are products of a "
    "point with a maximal special subvariety one genus down, up to "
    "Hecke translation",
    "v": "maximal compact subvarieties are Hodge-generic or point-times-"
    "special products (two distinct constructions)",
}

# Every range flag some verifier takes, in registry order.
_RANGE_FLAGS = tuple(dict.fromkeys(p.flag for v in REGISTRY.values() for p in v.params))
_CATALOG_REP_MAX = RangeParam("rep_max", 64, 4096)
_CATALOG_BLOCK = 4096  # catalog rows per json.dumps call: bounds an export's memory


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with _output(out) as fh:
        fh.write(text)


def _print_schema(command: str, out: str | None) -> int:
    _emit(json.dumps(SCHEMAS_BY_COMMAND[command], indent=2), out)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid genus range {text!r} (need 1 <= a <= b)")
    return lo, hi


def _descriptor_json(d) -> dict:
    if isinstance(d, HodgeGeneric):
        return {"type": "HodgeGeneric", "dim": d.dimension}
    if isinstance(d, SpecialFamily):
        return {
            "type": "SpecialFamily",
            "dim": d.dimension,
            "family": d.family,
            "k": d.k,
            "n": d.n,
        }
    if isinstance(d, ProductWithPoint):
        return {
            "type": "ProductWithPoint",
            "dim": d.dimension,
            "inner": _descriptor_json(d.inner),
        }
    raise TypeError(f"unknown descriptor {d!r}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_dmax(args: argparse.Namespace) -> int:
    if args.schema:
        return _print_schema("dmax", args.out)
    lo, hi = _parse_range(args.range)
    values = [(g, dmax(g)) for g in range(lo, hi + 1)]
    if args.format == "markdown":
        lines = ["| g | dmax |", "| --- | --- |"]
        lines += [f"| {g} | {v} |" for g, v in values]
        if args.timestamp:
            lines.append(f"\ngenerated at {_timestamp()}")
        _emit("\n".join(lines), args.out)
    elif args.format == "csv":
        lines = ["g,dmax"] + [f"{g},{v}" for g, v in values]
        _emit("\n".join(lines), args.out)
    else:
        doc = {
            "schema": "agdim.dmax-table/1",
            "values": [{"g": g, "dmax": v} for g, v in values],
        }
        if args.timestamp:
            doc["generated_at"] = _timestamp()
        _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    if args.schema:
        return _print_schema("tables", args.out)
    tables = assemble_tables(conjectural=args.conjectural)
    selected = [tables["ag"], tables["mg"]] if args.table == "all" else [tables[args.table]]
    if args.check:
        problems = check_all_tables({t.name: t for t in selected})
        if problems:
            for p in problems:
                print(p)
            print(f"fixture check FAILED: {len(problems)} cell mismatch(es)")
            return 1
        cells = sum(len(t.genera) * len(t.rows) for t in selected)
        print(f"fixture check passed: {len(selected)} table(s), {cells} cells")
        return 0
    if args.format == "markdown":
        body = "\n".join(t.to_markdown() for t in selected)
        if args.timestamp:
            body += f"\ngenerated at {_timestamp()}\n"
        _emit(body, args.out)
    elif args.format == "csv":
        _emit("\n".join(t.to_csv() for t in selected), args.out)
    else:
        doc = {"schema": "agdim.tables/1", "tables": [t.to_jsonable() for t in selected]}
        if args.timestamp:
            doc["generated_at"] = _timestamp()
        _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.schema:
        return _print_schema("verify", args.out)
    if args.claim is None:
        print("verify: a claim id is required (or --schema)", file=sys.stderr)
        return 2
    overrides = {
        flag: getattr(args, flag)
        for flag in _RANGE_FLAGS
        if getattr(args, flag) is not None
    }
    report = run_verifier(
        args.claim, overrides=overrides, unsafe_no_ceiling=args.unsafe_no_ceiling
    )
    doc = report.to_dict()
    if args.timestamp:
        doc["generated_at"] = _timestamp()
    _emit(json.dumps(doc, indent=2), args.out)
    return 0 if report.passed else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.schema:
        return _print_schema("explain", args.out)
    if args.g is None or args.g < 1:
        print("explain: g must be a positive integer", file=sys.stderr)
        return 2
    result: AgResult = dmc_ag(args.g)
    narrative = _CASE_NARRATIVE[result.case]
    if args.format == "json":
        doc = {
            "schema": "agdim.explain/1",
            "g": result.g,
            "dmc": result.dmc,
            "case": result.case,
            "attained_by": [_descriptor_json(d) for d in result.attained_by],
            "narrative": narrative,
        }
        if args.timestamp:
            doc["generated_at"] = _timestamp()
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [
            f"dmc(A_{result.g}) = {result.dmc}",
            f"case ({result.case}): {narrative}",
            "attained by: " + "; ".join(str(d) for d in result.attained_by),
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.schema:
        return _print_schema("catalog", args.out)
    _CATALOG_REP_MAX.check(args.rep_max, "catalog", args.unsafe_no_ceiling)
    doc = {"schema": "agdim.catalog/1", "max_rep_dim": args.rep_max, "cases": []}
    if args.timestamp:
        doc["generated_at"] = _timestamp()
    head, tail = json.dumps(doc, indent=2).split('"cases": []')
    # The rows are written in blocks, so memory does not grow with the
    # output.  A block's items are re-indented one level deeper, as they sit
    # in the document; this is exact because encoded JSON strings never hold
    # a raw newline.
    rows = iter_cases(args.rep_max, records=True)
    sep = ""
    with _output(args.out) as fh:
        fh.write(head + '"cases": [')
        while block := list(islice(rows, _CATALOG_BLOCK)):
            fh.write(sep + json.dumps(block, indent=2)[1:-2].replace("\n", "\n  "))
            sep = ","
        fh.write(("\n  ]" if sep else "]") + tail + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, formats: bool = True) -> None:
    if formats:
        sub.add_argument("--format", choices=_FORMATS, default="markdown")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    sub.add_argument("--schema", action="store_true", help="print the JSON schema and exit")
    sub.add_argument(
        "--timestamp",
        action="store_true",
        help="include a generation timestamp (output is byte-stable without it)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agdim",
        description="Exact dimension bounds for compact subvarieties of the "
        "moduli of abelian varieties, with exhaustive claim verifiers.",
    )
    parser.add_argument("--version", action="version", version=f"agdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dmax = sub.add_parser("dmax", help="genus bound over a range, e.g. 16..18 or 100")
    p_dmax.add_argument("range", nargs="?", help="single genus or inclusive range a..b")
    _add_common(p_dmax)
    p_dmax.set_defaults(handler=_cmd_dmax)

    p_tables = sub.add_parser("tables", help="emit the two summary tables")
    p_tables.add_argument("--table", choices=("ag", "mg", "all"), default="all")
    p_tables.add_argument(
        "--check",
        action="store_true",
        help="compare every cell against the frozen fixtures; exit 1 on mismatch",
    )
    p_tables.add_argument(
        "--conjectural",
        action="store_true",
        help="add clearly labeled conjectural rows (never part of --check)",
    )
    _add_common(p_tables)
    p_tables.set_defaults(handler=_cmd_tables)

    p_verify = sub.add_parser("verify", help="run one exhaustive claim verifier")
    p_verify.add_argument("claim", nargs="?", choices=sorted(REGISTRY))
    for flag in _RANGE_FLAGS:
        p_verify.add_argument(
            f"--{flag.replace('_', '-')}", type=int, default=None, metavar="N"
        )
    p_verify.add_argument(
        "--unsafe-no-ceiling",
        action="store_true",
        help="lift the hard ceilings on range flags",
    )
    _add_common(p_verify, formats=False)
    p_verify.set_defaults(handler=_cmd_verify)

    p_explain = sub.add_parser("explain", help="attainment narrative for one genus")
    p_explain.add_argument("g", nargs="?", type=int)
    _add_common(p_explain)
    p_explain.set_defaults(handler=_cmd_explain)

    p_catalog = sub.add_parser("catalog", help="classification catalog as JSON")
    p_catalog.add_argument(
        "--rep-max", type=int, default=_CATALOG_REP_MAX.default, metavar="N"
    )
    p_catalog.add_argument("--unsafe-no-ceiling", action="store_true")
    _add_common(p_catalog, formats=False)
    p_catalog.set_defaults(handler=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        if args.command == "dmax" and not args.schema and args.range is None:
            print("dmax: a genus or range argument is required", file=sys.stderr)
            return 2
        return args.handler(args)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # internal self-check failure: a real finding, not a usage problem
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
