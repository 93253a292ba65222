r"""Command-line surface: compute, tabulate, verify, explain, export.

Subcommands
-----------
``dmax A..B``      genus bound over a range (markdown/csv/json)
``tables``         the two summary tables; ``--check`` compares every cell
                   against the frozen fixtures and fails on any mismatch
``verify CLAIM``   run one exhaustive claim verifier, JSON report on stdout
``explain G``      attainment narrative for one genus (markdown/json),
                   rendered by ``moduli``: the case's narrative and
                   descriptors
``catalog``        classification catalog export as JSON

``_SUBCOMMANDS`` declares each subcommand once, as data: its help line,
its handler and its arguments (``_Arg``), and two readers use it.
``main`` parses a well-formed command line without argparse
(``_parse_direct``): the subcommand; its positional, if the next token does
not start with ``-``; then exact flags, each at most once, a value flag
followed by a token that does not start with ``-`` and that the flag's
``type`` converts to one of its ``choices``.  The namespace equals the one
argparse returns.  Any other command line (``-h``, ``--version``, an
abbreviation, ``--flag=value``, ``--``, a repeated flag, a negative value,
a positional after a flag, a bad value, no arguments) goes to the parser
``build_parser`` builds from the same table, which prints every help text,
usage line and error.  ``main`` also answers
``--schema`` for every subcommand, before its handler runs, and reports
every usage error: a handler raises ``ValueError`` and ``main`` prints
``<command>: <message>`` on stderr.  ``verify``, ``catalog`` and
``explain`` check their range inputs and stated peak memory through one
rule, ``verify.admit``, before any work.

Exit codes: 0 success or verified pass; 1 claim failure or fixture mismatch;
2 usage error; 141 (128 + SIGPIPE) from the ``agdim`` script when the
reader of stdout closes it early, with no traceback.  All output is
deterministic unless ``--timestamp`` is given.  An ``--out`` file is
written under a temporary name beside it and replaces it only when the
command completes.

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
- the constant text of the template escapes ``%`` as ``%%``;
- a row of the three row exports, ``dmax --format json``, ``catalog`` and
  ``verify remark-domination``, fills the template of its layout
  (``_layout``): ``_template`` of one row of that layout, with each ``int``
  leaf left as ``%s`` and every other leaf encoded by json.  ``%s`` of an
  ``int`` is ``int.__repr__``, which is what json writes for it, so every
  value that fills a template is exactly ``int`` (``%s`` of a ``bool`` is
  ``True``).  The ``dmax`` rows, ``{"g", "dmax"}``, share one layout;
- the other two take rows ``(layout, ints)``: ``ints`` are the integer
  leaves of the row's record in document order, and its layout the other
  leaves, which fix its keys: (case, duality) and (params, hss_dim,
  rep_dim, min_compact_factors) for ``catalog`` (``iter_cases``), (family,
  designated) and (r, 2, k_max, n) for a witness (``pairs.witness_record``).
  Every integer leaf is exactly ``int``.  ``_catalog_rows`` builds each
  layout's template once, from the record of the first row of that layout,
  and fills it with each row's ``ints``, one ``%`` per row.
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
from typing import Callable, Iterator, NamedTuple, TextIO

import numpy as np

from . import __version__, kernels
from .arith import dmax
from .moduli import assemble_tables, dmc_ag, dmc_ag_peak_bytes
from .satake import iter_cases, record
from .schemas import SCHEMAS_BY_COMMAND
from .tables import check_all_tables
from .verify import REGISTRY, RangeParam, admit, range_args, run_verifier

_FORMATS = ("markdown", "csv", "json")

# Every range flag some verifier takes, keyword to flag, in registry order.
_RANGE_FLAGS = {p.keyword: p.name for v in REGISTRY.values() for p in v.params}
_CATALOG_REP_MAX = RangeParam("--rep-max", 64, 4096)
_EXPLAIN_G = RangeParam("g", minimum=1, limit=kernels.MAX_SAFE_G)
# Rows per write of a long export: bounds its memory.  A block of catalog
# rows renders to about 90 kB, small enough to reuse memory the process has
# already touched (4096-row blocks took fresh pages on every write).
_BLOCK = 512
# The indentation of a row of ``_write_json``'s list.
_ROW = "\n    "


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
    fh: TextIO, head: str, rows: Iterator, render: Callable[[list], str], tail: str, sep: str = ""
) -> None:
    """Write ``head``, the rows rendered ``_BLOCK`` at a time and joined by
    ``sep``, then ``tail``, so memory does not grow with the output."""
    fh.write(head)
    lead = ""
    while block := list(islice(rows, _BLOCK)):
        fh.write(lead + render(block))
        lead = sep
    fh.write(tail)


def _lines(template: str, sep: str = "") -> Callable[[list], str]:
    """Render a block of tuples, ``template % row`` each, joined by ``sep``."""
    return lambda block: sep.join([template % row for row in block])


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


def _layout(row) -> str:
    """The template of ``row``'s layout as a row of ``_write_json``'s list:
    ``_template`` of it, with each ``int`` leaf left as ``%s`` and every
    other leaf encoded by json.  ``template % ints``, the ``int`` leaves of
    a row of that layout in document order, is that row's text as
    ``_dumps`` renders the list."""
    leaves: list = []
    template = _template(row, _ROW, leaves)
    # "\x00" is in no encoded leaf and no layout text; it marks the ints
    text = template % tuple("\x00" if type(x) is int else json.dumps(x) for x in leaves)
    return _ROW + text.replace("%", "%%").replace("\x00", "%s")


def _catalog_rows(to_record: Callable[..., dict] = record) -> Callable[[list], str]:
    """The block renderer of rows ``(layout, ints)``, ``catalog``'s by default:
    each row fills the ``_layout`` template of its layout (see the module
    docstring), built once per export from ``to_record`` of its first row."""
    templates: dict = {}

    def render(block: list[tuple]) -> str:
        # one % per row: one % of the whole block's template ran 7-10%
        # faster, but raised the peak RSS of the query benchmark by 1 MB
        rows = []
        for layout, values in block:
            template = templates.get(layout)
            if template is None:
                template = templates[layout] = _layout(to_record(layout, values))
            rows.append(template % values)
        return ",".join(rows)

    return render


def _write_json(
    fh: TextIO, doc: dict, key: str, rows: Iterator, render: Callable[[list], str]
) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline, where the list
    ``doc[key]`` (empty in ``doc``) holds the rows, at least one.  ``render``
    makes a block of them the text of its items as ``_dumps`` renders them
    in the list, joined by ``,``."""
    head, tail = _dumps(doc).split(f'"{key}": []')
    _write_rows(fh, f'{head}"{key}": [', rows, render, f"\n  ]{tail}\n", sep=",")


def _parse_range(text: str) -> tuple[int, int]:
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:  # malformed: fails the check below, with its message
        lo = hi = 0
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid genus range {text!r} (need 1 <= a <= b)")
    return lo, hi


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
    if args.range is None:
        raise ValueError("a genus or range argument is required")
    lo, hi = _parse_range(args.range)
    rows = _dmax_rows(lo, hi)
    with _output(args.out) as fh:
        if args.format == "markdown":
            tail = f"\ngenerated at {_timestamp()}\n" if args.timestamp else ""
            _write_rows(fh, "| g | dmax |\n| --- | --- |\n", rows, _lines("| %d | %d |\n"), tail)
        elif args.format == "csv":
            _write_rows(fh, "g,dmax\n", rows, _lines("%d,%d\n"), "")
        else:
            doc = {"schema": "agdim.dmax-table/1", "values": []}
            if args.timestamp:
                doc["generated_at"] = _timestamp()
            # Every row has one layout: its template, filled by (g, dmax) tuples.
            _write_json(fh, doc, "values", rows, _lines(_layout({"g": 1, "dmax": 1}), ","))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    tables = assemble_tables(conjectural=args.conjectural)
    selected = [tables["ag"], tables["mg"]] if args.table == "all" else [tables[args.table]]
    if args.check:
        problems = check_all_tables({t.name: t for t in selected})
        if problems:
            failed = f"fixture check FAILED: {len(problems)} cell mismatch(es)"
            _emit("\n".join([*problems, failed]), args.out)
            return 1
        cells = sum(len(t.genera) * len(t.rows) for t in selected)
        _emit(f"fixture check passed: {len(selected)} table(s), {cells} cells", args.out)
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
    if args.claim is None:
        raise ValueError("a claim id is required (or --schema)")
    overrides = {key: getattr(args, key) for key in _RANGE_FLAGS if getattr(args, key) is not None}
    # A usage error, then an --out path that cannot be opened, is refused
    # before any work.
    admitted = range_args(args.claim, overrides, args.unsafe_no_ceiling)
    with _output(args.out) as fh:
        report = run_verifier(args.claim, admitted=admitted)
        rows, to_record = report.witnesses, report.record
        if to_record:  # a witness table: its rows are written, not their records
            report.witnesses, report.record = [], None
        doc = report.to_dict()
        if args.timestamp:
            doc["generated_at"] = _timestamp()
        if to_record:
            _write_json(fh, doc, "witnesses", iter(rows), _catalog_rows(to_record))
        else:
            fh.write(_dumps(doc) + "\n")
    return 0 if report.passed else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.g is None or args.g < 1:
        raise ValueError("g must be a positive integer")
    admit("explain", (_EXPLAIN_G,), {"g": args.g}, peak_bytes=dmc_ag_peak_bytes)
    result = dmc_ag(args.g)
    if args.format == "json":
        doc = {
            "schema": "agdim.explain/1",
            "g": result.g,
            "dmc": result.dmc,
            "case": result.case,
            "attained_by": [d.to_jsonable() for d in result.attained_by],
            "narrative": result.narrative,
        }
        if args.timestamp:
            doc["generated_at"] = _timestamp()
        _emit(_dumps(doc), args.out)
    else:
        lines = [
            f"dmc(A_{result.g}) = {result.dmc}",
            f"case ({result.case}): {result.narrative}",
            "attained by: " + "; ".join(str(d) for d in result.attained_by),
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    admit("catalog", (_CATALOG_REP_MAX,), {"rep_max": args.rep_max}, args.unsafe_no_ceiling)
    doc = {"schema": "agdim.catalog/1", "max_rep_dim": args.rep_max, "cases": []}
    if args.timestamp:
        doc["generated_at"] = _timestamp()
    with _output(args.out) as fh:
        _write_json(fh, doc, "cases", iter_cases(args.rep_max), _catalog_rows())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Arg(NamedTuple):
    """One argument of a subcommand.  A name that starts with ``-`` is a
    flag that stores one value, or ``True`` when ``switch`` is set
    (argparse's ``store_true``, which starts ``False``: a switch takes no
    ``default``); any other name is a positional with ``nargs="?"``.  These
    are the only kinds ``_parse_direct`` reads."""

    name: str
    type: Callable | None = None
    choices: tuple | None = None
    default: object = None
    help: str | None = None
    metavar: str | None = None
    switch: bool = False


_FORMAT = _Arg("--format", choices=_FORMATS, default="markdown")
_COMMON = (
    _Arg("--out", metavar="PATH", help="write output to PATH instead of stdout"),
    _Arg("--schema", switch=True, help="print the JSON schema and exit"),
    _Arg("--timestamp", switch=True, help="include a generation timestamp (output is byte-stable without it)"),
)

# name -> (help line, handler, arguments), in the order the top-level help
# lists them; each subcommand's help lists its arguments in this order
_SUBCOMMANDS = {
    "dmax": ("genus bound over a range, e.g. 16..18 or 100", _cmd_dmax, (
        _Arg("range", help="single genus or inclusive range a..b"),
        _FORMAT, *_COMMON,
    )),
    "tables": ("emit the two summary tables", _cmd_tables, (
        _Arg("--table", choices=("ag", "mg", "all"), default="all"),
        _Arg("--check", switch=True, help="compare every cell against the frozen fixtures; exit 1 on mismatch"),
        _Arg("--conjectural", switch=True, help="add clearly labeled conjectural rows (never part of --check)"),
        _FORMAT, *_COMMON,
    )),
    "verify": ("run one exhaustive claim verifier", _cmd_verify, (
        _Arg("claim", choices=tuple(sorted(REGISTRY))),
        *(_Arg(flag, int, metavar="N") for flag in _RANGE_FLAGS.values()),
        _Arg("--unsafe-no-ceiling", switch=True, help="lift the hard ceilings on range flags"),
        *_COMMON,
    )),
    "explain": ("attainment narrative for one genus", _cmd_explain, (
        _Arg("g", int),
        _Arg("--format", choices=("markdown", "json"), default="markdown"),
        *_COMMON,
    )),
    "catalog": ("classification catalog as JSON", _cmd_catalog, (
        _Arg(_CATALOG_REP_MAX.name, int, default=_CATALOG_REP_MAX.default, metavar="N"),
        _Arg("--unsafe-no-ceiling", switch=True),
        *_COMMON,
    )),
}


def _direct(command: str, handler: Callable, arguments: tuple[_Arg, ...]) -> tuple:
    """What ``_parse_direct`` reads of one subcommand: its positional (or
    None), its flags by name, each with its dest, and the namespace of no
    arguments, as argparse fills it."""
    positional, flags = None, {}
    defaults = {"command": command, "handler": handler}
    for arg in arguments:
        if arg.name.startswith("-"):
            dest = arg.name.lstrip("-").replace("-", "_")  # argparse's dest for one long flag
            flags[arg.name] = (dest, arg)
            defaults[dest] = False if arg.switch else arg.default
        else:
            positional = arg
            defaults[arg.name] = arg.default
    return positional, flags, defaults


_DIRECT = {name: _direct(name, handler, arguments) for name, (_, handler, arguments) in _SUBCOMMANDS.items()}


def _parse_direct(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, when
    ``argv`` is well formed (see the module docstring); None for anything
    else."""
    direct = _DIRECT.get(argv[0]) if argv else None
    if direct is None:
        return None
    positional, flags, defaults = direct
    values = defaults.copy()
    given = []  # (dest, arg, token), converted below
    tokens = iter(argv[1:])
    token = next(tokens, None)
    if positional and token is not None and not token.startswith("-"):
        given.append((positional.name, positional, token))
        token = next(tokens, None)
    seen = set()
    while token is not None:
        if token in seen or token not in flags:
            return None
        seen.add(token)
        dest, arg = flags[token]
        if arg.switch:
            values[dest] = True
        else:  # a missing value declines, as a value starting with "-" does
            given.append((dest, arg, next(tokens, "-")))
        token = next(tokens, None)
    for dest, arg, token in given:
        if token.startswith("-"):
            return None
        try:  # argparse reports exactly these as an invalid value
            value = token if arg.type is None else arg.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[dest] = value
    return argparse.Namespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """A new ``agdim`` parser with every subcommand's parser and arguments,
    built from ``_SUBCOMMANDS``.  ``main`` builds it only for a command line
    that ``_parse_direct`` declines, so it prints every help text, usage
    line and error."""
    parser = argparse.ArgumentParser(
        prog="agdim",
        description="Exact dimension bounds for compact subvarieties of the "
        "moduli of abelian varieties, with exhaustive claim verifiers.",
    )
    parser.add_argument("--version", action="version", version=f"agdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (line, handler, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=line)
        for arg in arguments:
            keywords = arg._asdict()
            name, switch = keywords.pop("name"), keywords.pop("switch")
            keywords["action"] = "store_true" if switch else None
            keywords["nargs"] = None if name.startswith("-") else "?"
            # only what is set, so a switch keeps argparse's default, False
            p.add_argument(name, **{k: v for k, v in keywords.items() if v is not None})
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_direct(argv)
    if args is None:  # argparse prints every help text, usage line and error
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse uses 2 for usage errors already
            return int(exc.code or 0)
    try:
        if args.schema:
            _emit(_dumps(SCHEMAS_BY_COMMAND[args.command]), args.out)
            return 0
        return args.handler(args)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # internal self-check failure: a real finding, not a usage problem
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    """The ``agdim`` script: exit with :func:`main`'s code, or with 141, as
    a process killed by SIGPIPE does, when stdout's reader closed it early
    (``agdim ... | head -1``)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit, which would raise once more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)
