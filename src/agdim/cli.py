r"""Command-line surface: compute, tabulate, verify, explain, export.

Subcommands
-----------
``dmax A..B``      genus bound over a range (markdown/csv/json)
``tables``         the two summary tables; ``--check`` compares every cell
                   against the frozen fixtures and fails on any mismatch
``verify CLAIM``   run one exhaustive claim verifier, JSON report on stdout
``explain G``      attainment narrative for one genus
``catalog``        classification catalog export as JSON

``main`` builds only the invoked subcommand's arguments: the parser
registers all five subcommands with their help lines, and each adds its
arguments when it first parses (``_Subcommand``).

Exit codes: 0 success or verified pass; 1 claim failure or fixture mismatch;
2 usage error.  All output is deterministic unless ``--timestamp`` is given.
An ``--out`` file is written under a temporary name beside it and replaces
it only when the command completes.

JSON output
-----------
Every JSON document is ``json.dumps(doc, indent=2)`` byte for byte, but
Python 3.11 runs ``indent=2`` in its pure-Python encoder.  ``_dumps`` walks
the document once, building a ``%s`` template of its layout and collecting
its scalar leaves in order; a list of dicts takes one template per row
shape.  One ``json.dumps`` of the leaf list, with ``"\x00"`` as the item
separator, runs the C encoder on every leaf; its text is split on
``"\x00"`` and fills the template.  This is exact:

- every leaf is encoded by json itself, as the indented form encodes it:
  strings with ``ensure_ascii``, bool and None, ints of any size, floats
  by ``repr`` with NaN and the infinities spelled as json spells them;
- keys are encoded by json's own ``encode_basestring_ascii``, and must be
  ``str`` (every agdim document has only ``str`` keys; ``_dumps`` raises
  ``TypeError`` on any other, which json would convert);
- an encoded value never holds a raw control character (``ensure_ascii``
  escapes them all, ``"\x00"`` included), so the split cannot cut inside a
  value, and a raw newline only comes from the layout, so a block of rows
  can be rendered at any depth;
- the constant text of the template escapes ``%`` as ``%%``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from datetime import datetime, timezone
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, TextIO

import numpy as np

from . import __version__, kernels
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
from .verify import REGISTRY, RangeParam, range_args, run_verifier

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
# Rows per write of a long export: bounds its memory.  A block of catalog
# rows renders to about 90 kB, small enough to reuse memory the process has
# already touched (4096-row blocks took fresh pages on every write).
_BLOCK = 512


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _open(path: str, out: str, mode: str) -> TextIO:
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:  # a usage error, not a claim failure
        raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """Stdout, or the file ``out``.  A regular file is written under a
    temporary name beside it (beside a symlink's target) and replaces it only
    when the body completes, so a run that raises or is interrupted leaves an
    existing file as it was."""
    if not out:
        yield sys.stdout
        return
    if os.path.exists(out) and not os.path.isfile(out):
        # a device or a pipe is written in place (a directory fails to open)
        with _open(out, out, "w") as fh:
            yield fh
        return
    target = os.path.realpath(out)
    tmp = f"{target}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    fh = _open(tmp, out, "x")
    try:
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(target, tmp)  # keep an existing file's permissions
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with _output(out) as fh:
        fh.write(text)


def _write_rows(
    out: str | None, head: str, rows: Iterator, render: Callable[[list], str], tail: str, sep: str = ""
) -> None:
    """Write ``head``, the rows rendered ``_BLOCK`` at a time and joined by
    ``sep``, then ``tail``, so memory does not grow with the output."""
    with _output(out) as fh:
        fh.write(head)
        lead = ""
        while block := list(islice(rows, _BLOCK)):
            fh.write(lead + render(block))
            lead = sep
        fh.write(tail)


def _lines(template: str) -> Callable[[list], str]:
    """Render a block of tuples, ``template % row`` each."""
    return lambda block: "".join(template % row for row in block)


_CONTAINERS = (dict, list, tuple)


def _dumps(obj, nl: str = "\n") -> str:
    r"""``json.dumps(obj, indent=2)``, byte for byte (see the module
    docstring), with ``obj`` at the indentation of ``nl``: ``"\n  "``
    renders it one level deep.  Every dict key must be ``str``."""
    leaves: list = []
    template = _template(obj, nl, leaves)
    if not leaves:
        return template % ()
    encoded = json.dumps(leaves, separators=("\x00", ": "))
    return template % tuple(encoded[1:-1].split("\x00"))


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key).replace("%", "%%")


def _template(obj, nl: str, leaves: list) -> str:
    """The ``%s`` template of ``obj`` at indentation ``nl``; its leaves are
    appended to ``leaves`` in document order."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = [_key(k) + ": " + _template(v, inner, leaves) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_items(obj, inner, leaves)) + nl + "]"
    leaves.append(obj)
    return "%s"


def _items(items, nl: str, leaves: list) -> list[str]:
    """The templates of a list's items.  A dict item takes the template of
    its shape, built once per list: its keys and value types and, for each
    dict or list value, that value's keys or length and its item types.  A
    shape whose nested values nest again is walked item by item."""
    shapes: dict = {}  # keys and value types -> nested (position, is dict), last first
    cache: dict = {}  # full shape -> template, or None for a deeper shape
    out = []
    for item in items:
        if not isinstance(item, dict):
            out.append(_template(item, nl, leaves))
            continue
        values = [*item.values()]
        shape = (*item, *map(type, values))
        nested = shapes.get(shape)
        if nested is None:
            nested = shapes[shape] = [
                (i, isinstance(v, dict)) for i, v in enumerate(values) if isinstance(v, _CONTAINERS)
            ][::-1]
        if nested:
            parts = [shape]
            for i, is_dict in nested:  # last first, so each splice leaves i valid
                v = values[i]
                if is_dict:
                    parts.append((*v, *map(type, v.values())))
                    v = v.values()
                else:
                    parts.append((len(v), *map(type, v)))
                values[i : i + 1] = v
            shape = tuple(parts)
        template = cache.get(shape)
        if template is None:
            if shape in cache or any(isinstance(v, _CONTAINERS) for v in values):
                cache[shape] = None
                out.append(_template(item, nl, leaves))
                continue
            template = cache[shape] = _template(item, nl, [])
        out.append(template)
        leaves += values
    return out


def _json_block(block: list) -> str:
    # The block's items as they sit in the document, one level deep.
    return _dumps(block, "\n  ")[1:-4]


def _write_json(out: str | None, doc: dict, key: str, rows: Iterator) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline, where the list
    ``doc[key]`` (empty in ``doc``) holds the rows, at least one."""
    head, tail = _dumps(doc).split(f'"{key}": []')
    _write_rows(out, f'{head}"{key}": [', rows, _json_block, f"\n  ]{tail}\n", sep=",")


def _print_schema(command: str, out: str | None) -> int:
    _emit(_dumps(SCHEMAS_BY_COMMAND[command]), out)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:  # malformed: fails the check below, with its message
        lo = hi = 0
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


def _dmax_rows(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """(g, dmax(g)) for lo <= g <= hi.  The values of each ``_BLOCK`` genera
    come from one int64 kernel call, or from Python ints when ``hi`` is past
    the kernel's ceiling."""
    for start in range(lo, hi + 1, _BLOCK):
        gs = range(start, min(start + _BLOCK, hi + 1))
        if hi <= kernels.MAX_SAFE_G:
            values = kernels.dmax_values(np.arange(gs.start, gs.stop, dtype=np.int64)).tolist()
        else:
            values = map(dmax, gs)
        yield from zip(gs, values)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_dmax(args: argparse.Namespace) -> int:
    if args.schema:
        return _print_schema("dmax", args.out)
    lo, hi = _parse_range(args.range)
    rows = _dmax_rows(lo, hi)
    if args.format == "markdown":
        tail = f"\ngenerated at {_timestamp()}\n" if args.timestamp else ""
        _write_rows(args.out, "| g | dmax |\n| --- | --- |\n", rows, _lines("| %d | %d |\n"), tail)
    elif args.format == "csv":
        _write_rows(args.out, "g,dmax\n", rows, _lines("%d,%d\n"), "")
    else:
        doc = {"schema": "agdim.dmax-table/1", "values": []}
        if args.timestamp:
            doc["generated_at"] = _timestamp()
        _write_json(args.out, doc, "values", ({"g": g, "dmax": v} for g, v in rows))
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
        _emit(_dumps(doc), args.out)
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
    # A usage error, then an --out path that cannot be opened, is refused
    # before any work.
    range_args(args.claim, overrides, args.unsafe_no_ceiling)
    with _output(args.out) as fh:
        report = run_verifier(
            args.claim, overrides=overrides, unsafe_no_ceiling=args.unsafe_no_ceiling
        )
        doc = report.to_dict()
        if args.timestamp:
            doc["generated_at"] = _timestamp()
        fh.write(_dumps(doc) + "\n")
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
        _emit(_dumps(doc), args.out)
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
    _write_json(args.out, doc, "cases", iter_cases(args.rep_max))
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


def _dmax_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("range", nargs="?", help="single genus or inclusive range a..b")
    _add_common(p)
    p.set_defaults(handler=_cmd_dmax)


def _tables_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", choices=("ag", "mg", "all"), default="all")
    p.add_argument(
        "--check",
        action="store_true",
        help="compare every cell against the frozen fixtures; exit 1 on mismatch",
    )
    p.add_argument(
        "--conjectural",
        action="store_true",
        help="add clearly labeled conjectural rows (never part of --check)",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_tables)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("claim", nargs="?", choices=sorted(REGISTRY))
    for flag in _RANGE_FLAGS:
        p.add_argument(f"--{flag.replace('_', '-')}", type=int, default=None, metavar="N")
    p.add_argument(
        "--unsafe-no-ceiling",
        action="store_true",
        help="lift the hard ceilings on range flags",
    )
    _add_common(p, formats=False)
    p.set_defaults(handler=_cmd_verify)


def _explain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("g", nargs="?", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_explain)


def _catalog_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rep-max", type=int, default=_CATALOG_REP_MAX.default, metavar="N")
    p.add_argument("--unsafe-no-ceiling", action="store_true")
    _add_common(p, formats=False)
    p.set_defaults(handler=_cmd_catalog)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its arguments (the ``arguments``
    callback) when it first parses.  Every ``add_argument`` builds a help
    formatter and reads the terminal size, so building all five subcommands
    cost more than most commands take to run; a run parses one."""

    def __init__(self, *args, arguments: Callable[[argparse.ArgumentParser], None], **kwargs):
        super().__init__(*args, **kwargs)
        self._arguments: Callable[[argparse.ArgumentParser], None] | None = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            add, self._arguments = self._arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The ``agdim`` parser: every subcommand is registered with its help
    line, and adds its own arguments only when it parses.  All five stay
    registered because the top-level usage line, which also reports an
    unknown flag, lists them."""
    parser = argparse.ArgumentParser(
        prog="agdim",
        description="Exact dimension bounds for compact subvarieties of the "
        "moduli of abelian varieties, with exhaustive claim verifiers.",
    )
    parser.add_argument("--version", action="version", version=f"agdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    sub.add_parser("dmax", help="genus bound over a range, e.g. 16..18 or 100", arguments=_dmax_args)
    sub.add_parser("tables", help="emit the two summary tables", arguments=_tables_args)
    sub.add_parser("verify", help="run one exhaustive claim verifier", arguments=_verify_args)
    sub.add_parser("explain", help="attainment narrative for one genus", arguments=_explain_args)
    sub.add_parser("catalog", help="classification catalog as JSON", arguments=_catalog_args)
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
