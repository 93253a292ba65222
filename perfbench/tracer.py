"""Traced runs: wrap each agdim layer's public functions from outside.

The tracer replaces a fixed list of public functions with wrappers that
record one span per call (layer, start, end, parent) in memory, plus counts
taken at the same boundary (kernel elements, satake cases, output bytes).
Per-layer numbers are derived from the spans when the run ends.  A layer's
self time is its spans' duration minus the part covered by child spans.

Only traced runs install the wrappers; end-to-end metrics come from untraced
runs.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
import types

now = time.perf_counter


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "busy", "counts")

    def __init__(self, layer: str, name: str, parent: "Span | None"):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.busy: float | None = None  # set for generators: time inside next()
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start


# --- per-call counters, computed from arguments and results -----------------


def _kernel_elements(name: str, args: tuple) -> int:
    """Domain elements a kernel call evaluates (pairs for the 2-D scans)."""
    if name == "dmax_values":
        return len(args[0])
    if name in ("piecewise_mismatches", "f_bound_violations"):
        return args[1] - args[0] + 1
    if name == "superadditivity_scan":  # sum of g_max - 2 g1 + 1 over g1
        g_max = len(args[0]) - 1
        lo = args[1] if len(args) > 1 else 1
        hi = min(args[2] if len(args) > 2 and args[2] is not None else g_max, g_max // 2)
        n = max(0, hi - lo + 1)
        return n * (g_max + 1) - (lo + hi) * n
    if name == "best_indec_table":
        return args[0] + 1
    if name == "mdsp_table":
        n = len(args[0])
        return n * n // 4  # split pairs (g', g - g') with g' <= g/2
    if name == "pair_efficiency_mismatches":  # sum of b_max - a + 1 over a
        a_max, b_max = args
        n = a_max - 1
        return n * (b_max + 1) - (a_max + 2) * n // 2
    raise KeyError(name)


def _nbytes(value) -> int:
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0))


KERNELS = (
    "dmax_values",
    "piecewise_mismatches",
    "f_bound_violations",
    "superadditivity_scan",
    "best_indec_table",
    "mdsp_table",
    "pair_efficiency_mismatches",
)
# layer -> (module, public function) pairs the tracer wraps
WRAPPED = {
    "cli": [("agdim.cli", "main")],
    "verify": [("agdim.verify", "run_verifier")],
    "kernels": [("agdim.kernels", k) for k in KERNELS],
    "efficiency": [("agdim.efficiency", "verify_efficiency_classification")],
    "pairs": [
        ("agdim.pairs", n)
        for n in ("verify_claim_f", "verify_remark_domination", "mdsp_star_table", "best_indecomposable_table")
    ],
    "moduli": [("agdim.moduli", n) for n in ("dmc_ag", "dmc_ag_range", "dmc_mgct", "assemble_tables")],
    "tables": [("agdim.tables", "check_all_tables")],
    "serialize": [("agdim.satake", "catalog_json")],
}
# serialization methods wrapped on their classes
WRAPPED_METHODS = [
    ("agdim.report", "VerificationReport", "to_dict"),
    ("agdim.tables", "DimensionTable", "to_markdown"),
    ("agdim.tables", "DimensionTable", "to_csv"),
    ("agdim.tables", "DimensionTable", "to_jsonable"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[Span] = []
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0

    # --- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> tuple[Span, list[Span]]:
        stack = self._stack()
        # A pool thread's first span belongs to the caller blocked in verify.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(layer, name, parent)
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span, stack

    def wrap(self, layer: str, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, stack = self._open(layer, name)
            span.start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = now()
                stack.pop()
            if count is not None:
                count(span, args, result)
            return result

        return wrapper

    def wrap_generator(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            span, stack = self._open(layer, name)
            stack.pop()
            span.busy = 0.0
            span.counts["items"] = 0
            span.start = now()
            while True:
                t0 = now()
                stack.append(span)
                try:
                    item = next(it)
                except StopIteration:
                    break
                finally:
                    stack.pop()
                    span.busy += now() - t0
                span.counts["items"] += 1
                yield item
            span.end = now()

        return wrapper

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = now()
        else:
            self.gc_collections += 1
            self.gc_pause_s += now() - self._gc_start

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Swap every wrapped function for its wrapper, in every agdim
        module that holds a reference to it (``from .x import f`` copies)."""
        replace: dict[int, object] = {}

        def kernel_count(kname):
            def count(span, args, result):
                span.counts["elements"] = n = _kernel_elements(kname, args)
                # computed, not measured: the int64 domain array, the array
                # arguments and the results
                span.counts["bytes"] = 8 * n + _nbytes(args) + _nbytes(result)

            return count

        def text_bytes(span, args, result):
            if isinstance(result, str):
                span.counts["bytes"] = len(result)

        for layer, targets in WRAPPED.items():
            for mod_name, fn_name in targets:
                fn = getattr(importlib.import_module(mod_name), fn_name)
                count = kernel_count(fn_name) if layer == "kernels" else COUNTERS.get(fn_name)
                replace[id(fn)] = self.wrap(layer, fn_name, fn, count)
        satake = importlib.import_module("agdim.satake")
        replace[id(satake.iter_cases)] = self.wrap_generator("satake", "iter_cases", satake.iter_cases)

        for mod_name, cls_name, meth in WRAPPED_METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            setattr(cls, meth, self.wrap("serialize", meth, getattr(cls, meth), text_bytes))

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "agdim" or mod_name.startswith("agdim."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace:
                        setattr(mod, attr, replace[id(value)])

        cli = sys.modules["agdim.cli"]
        # cli uses json.dumps only; give it a namespace whose dumps is traced.
        cli.json = types.SimpleNamespace(dumps=self.wrap("serialize", "json.dumps", cli.json.dumps, text_bytes))
        build_parser = self.wrap("cli.parse", "build_parser", cli.build_parser)

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", "parse_args", parser.parse_args)
            return parser

        cli.build_parser = traced_build_parser
        gc.callbacks.append(self._gc_callback)

    # --- derived per-layer metrics -------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)

        def self_time(s: Span) -> float:
            kids = children.get(id(s), [])
            covered = sum(k.busy for k in kids if k.busy is not None)
            covered += _union([(k.start, k.end) for k in kids if k.busy is None])
            return max(0.0, s.duration - covered)

        def under(s: Span, layer: str) -> bool:
            p = s.parent
            while p is not None:
                if p.layer == layer:
                    return True
                p = p.parent
            return False

        by_layer: dict[str, list[Span]] = {}
        for s in self.spans:
            by_layer.setdefault(s.layer, []).append(s)

        def busy(layer: str) -> float:
            return sum((self_time(s) for s in by_layer.get(layer, [])), 0.0)

        def total(spans, key) -> int:
            return sum(s.counts.get(key, 0) for s in spans)

        parse_per_op: dict[int, float] = {}
        for s in by_layer.get("cli.parse", []):
            root = s.parent
            parse_per_op[id(root)] = parse_per_op.get(id(root), 0.0) + s.duration
        parse_ms = sorted(parse_per_op.values())

        kern = by_layer.get("kernels", [])
        k_busy = sum(s.duration for s in kern)
        k_elems = total(kern, "elements")
        k_union = _union([(s.start, s.end) for s in kern])

        serialize = by_layer.get("serialize", [])
        sat = by_layer.get("satake", [])
        sat_verify = [s for s in sat if under(s, "verify")]
        sat_export = [s for s in sat if not under(s, "verify")]

        pairs = by_layer.get("pairs", [])
        moduli = by_layer.get("moduli", [])
        dmc_calls = sum(1 for s in moduli if s.name == "dmc_ag")
        builds = sum(1 for s in pairs if s.name == "mdsp_star_table" and s.parent and s.parent.layer == "moduli")
        blocked = ("piecewise_mismatches", "f_bound_violations", "superadditivity_scan")

        eff = by_layer.get("efficiency", [])
        eff_busy = busy("efficiency")
        eff_sets = total(eff, "multisets")

        m = {
            "cli.parse_ms": 1e3 * parse_ms[len(parse_ms) // 2] if parse_ms else 0.0,
            "cli.self_s": busy("cli"),
            "serialize.s": busy("serialize"),
            "serialize.bytes": total(serialize, "bytes"),
            "verify.self_s": busy("verify"),
            "verify.blocks": sum(1 for s in kern if s.name in blocked and under(s, "verify")),
            "kernels.overlap": k_busy / k_union if k_union else 1.0,
            "kernels.busy_s": k_busy,
            "kernels.calls": len(kern),
            "kernels.elements": k_elems,
            "kernels.bytes_computed": total(kern, "bytes"),
            "kernels.elements_per_s": k_elems / k_busy if k_busy else 0.0,
            "efficiency.busy_s": eff_busy,
            "efficiency.multisets": eff_sets,
            "efficiency.multisets_per_s": eff_sets / eff_busy if eff_busy else 0.0,
            "pairs.busy_s": busy("pairs"),
            "pairs.calls": len(pairs),
            "moduli.busy_s": busy("moduli"),
            "moduli.table_builds": builds,
            "moduli.hit_ratio": 1 - builds / dmc_calls if dmc_calls else 0.0,
            "tables.check_s": busy("tables"),
            "gc.collections": self.gc_collections,
            "gc.pause_s": self.gc_pause_s,
        }
        for caller, spans in (("verify", sat_verify), ("export", sat_export)):
            b = sum((self_time(s) for s in spans), 0.0)
            cases = total(spans, "items")
            m[f"satake.{caller}.busy_s"] = b
            m[f"satake.{caller}.cases"] = cases
            m[f"satake.{caller}.cases_per_s"] = cases / b if b else 0.0
        return m


def _count_multisets(span: Span, args: tuple, report) -> None:
    span.counts["multisets"] = report.details["multisets_checked"]


COUNTERS = {"verify_efficiency_classification": _count_multisets}


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
