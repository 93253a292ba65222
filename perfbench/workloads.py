"""The benchmark's two workloads: seeded op lists and the oracles that check them.

An op is one in-process ``agdim`` command line.  Each workload yields its ops
in *passes*: a pass holds every (kind, size) of the workload once, in an order
drawn from the seed, so op kinds are interleaved and machine drift hits every
kind alike.  A run always measures whole passes, which keeps the op mix, and
so every median, the same from run to run and from seed to seed.

Every oracle here is written from the paper's closed forms and counting
arguments, without importing agdim: the closed form of dmax, a partition
count for the lemma-N multisets, a per-family count of catalog cases, and
the verifier's own exit code and ``"status": "pass"``.  The blocked scans
report counts copied from their input, so their oracle also checks, through
``BlockLog``, that the kernel calls tiled the whole range exactly once.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

# (rc, stdout) -> None when the output is right, else the reason it is wrong.
Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    items: int  # domain items the op checks, counted by the oracle
    check: Check
    # (kernel, lo, hi): the op's calls of that blocked kernel must tile lo..hi
    tiles: tuple[str, int, int] | None = None


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is recorded in BENCHMARK.json
    tail_pct: int  # the tail percentile op_tail_ms reports
    warmup: Callable[[str], list[Op]]
    passes: Callable[[random.Random, str], Iterator[list[Op]]]
    # Passes per second of --seconds when a run does a fixed amount of work
    # instead of stopping on time (see QUERY); None: the run stops on time.
    passes_per_s: int | None = None
    # items_per_s counts ops (queries) instead of the ops' domain items
    item_is_op: bool = False

    @property
    def min_ops(self) -> int:
        """Ops a run needs so that ten samples lie beyond ``tail_pct``."""
        return math.ceil(10 / (1 - self.tail_pct / 100))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def dmax_closed(g: int) -> int:
    """The paper's closed form max(g - 1, floor(floor(g/2)^2 / 4))."""
    return max(g - 1, (g // 2) ** 2 // 4)


@functools.lru_cache(maxsize=None)
def multiset_count(sum_max: int) -> int:
    """Nonempty multisets of integers >= 2 with sum <= sum_max, counted as
    partitions into parts >= 2 (coin-change DP)."""
    ways = [1] + [0] * sum_max
    for part in range(2, sum_max + 1):
        for s in range(part, sum_max + 1):
            ways[s] += ways[s - part]
    return sum(ways[1:])


@functools.lru_cache(maxsize=None)
def catalog_case_count(rep_max: int) -> int:
    """Catalog rows with representation dimension <= rep_max, family by
    family: A1 (dim 2), D4 (8), I_{p,n} (n, 1 <= p <= n/2, n >= 3),
    I'_{n,c} (C(n, c), 2 <= c <= n-2), II_r (2r, r != 4), III1_r and
    III2_r (2r), IV1even_p (2^(p-1), p >= 3, p != 4), IV1odd_p (2^p,
    p >= 2), IV2_r (2^(r-1), r >= 3, r != 4)."""
    if rep_max < 2:
        return 0
    count = 1 + (rep_max >= 8)
    count += sum(n // 2 for n in range(3, rep_max + 1))
    n = 4
    while n * (n - 1) // 2 <= rep_max:
        count += sum(1 for c in range(2, n - 1) if math.comb(n, c) <= rep_max)
        n += 1
    rs = range(2, rep_max // 2 + 1)
    count += sum(1 for r in rs if r != 4) + 2 * len(rs)
    count += sum(1 for p in range(3, 64) if p != 4 and 2 ** (p - 1) <= rep_max)
    count += sum(1 for p in range(2, 64) if 2**p <= rep_max)
    count += sum(1 for r in range(3, 64) if r != 4 and 2 ** (r - 1) <= rep_max)
    return count


# blocked kernel -> the inclusive domain range one call covers, from its arguments
BLOCK_RANGE = {
    "piecewise_mismatches": lambda g_lo, g_hi: (g_lo, g_hi),
    "f_bound_violations": lambda n_lo, n_hi: (n_lo, n_hi),
    "superadditivity_scan": lambda D, g1_lo=1, g1_hi=None: (g1_lo, (len(D) - 1) // 2 if g1_hi is None else g1_hi),
}


class BlockLog:
    """Records the range of every call to the blocked int64 kernels.

    A scan's report gives counts computed from its own input, so it reads the
    same when blocks are skipped.  ``tiling_problem`` checks the recorded
    calls instead.  The wrappers add one list append per call, in untraced
    and traced runs alike (a scan op makes at most a few dozen calls).
    """

    def __init__(self, kernels) -> None:
        self.calls: list[tuple[str, int, int]] = []
        for name, span in BLOCK_RANGE.items():
            setattr(kernels, name, self._wrap(name, span, getattr(kernels, name)))

    def _wrap(self, name: str, span, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls.append((name, *span(*args, **kwargs)))  # atomic under the GIL
            return fn(*args, **kwargs)

        return wrapper

    def tiling_problem(self, tiles: tuple[str, int, int]) -> str | None:
        """None when the calls of ``tiles``' kernel cover lo..hi once, in
        any order, with no gap and no overlap."""
        kernel, lo, hi = tiles
        ranges = sorted((a, b) for k, a, b in self.calls if k == kernel)
        nxt = lo
        for a, b in ranges:
            if a != nxt:
                break
            nxt = b + 1
        else:
            if nxt == hi + 1:
                return None
        return f"{kernel} calls covered {ranges[:4]}{' ...' if len(ranges) > 4 else ''}, not {lo}..{hi} once"


def _report(rc: int, out: str) -> tuple[dict | None, str | None]:
    """Parse a ``verify`` report; a pass needs exit 0 and status "pass"."""
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"
    if doc.get("status") != "pass":
        return None, f"status {doc.get('status')!r}"
    return doc, None


def _verify_check(expect: Callable[[dict], "str | None"]) -> Check:
    def check(rc: int, out: str) -> str | None:
        doc, err = _report(rc, out)
        return err if err else expect(doc)

    return check


def _equal(what: str, got, want) -> str | None:
    if got == want:
        return None
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        got, want, what = got[i], want[i], f"{what}[{i}]"
    return f"{what}: got {got!r:.200}, expected {want!r:.200}"


# ---------------------------------------------------------------------------
# op constructors, one per command kind
# ---------------------------------------------------------------------------


def op_lemma_dmax(g_max: int) -> Op:
    pairs = g_max * g_max // 4  # g1 <= g2, g1 + g2 <= g_max
    equalities = len(range(16, g_max, 2))  # g1 = 1, g2 even >= 16

    def expect(doc):
        return _equal("pairs_checked", doc["details"]["pairs_checked"], pairs) or _equal(
            "equality count", doc["witnesses"][0]["count"], equalities
        )

    argv = ("verify", "lemma-dmax", "--g-max", str(g_max))
    return Op("lemma-dmax", argv, pairs, _verify_check(expect), ("superadditivity_scan", 1, g_max // 2))


def op_prop_estimate(g_max: int) -> Op:
    equalities = 1 + len(range(16, g_max + 1, 2))  # g = 2 and even g >= 16

    def expect(doc):
        return _equal("genera_checked", doc["details"]["genera_checked"], g_max) or _equal(
            "equality count", doc["witnesses"][0]["count"], equalities
        )

    argv = ("verify", "prop-estimate", "--g-max", str(g_max))
    return Op("prop-estimate", argv, g_max, _verify_check(expect))


def op_piecewise(g_max: int) -> Op:
    def expect(doc):
        return _equal("values_checked", doc["details"]["values_checked"], g_max)

    argv = ("verify", "dmax-piecewise", "--g-max", str(g_max))
    return Op("dmax-piecewise", argv, g_max, _verify_check(expect), ("piecewise_mismatches", 1, g_max))


def op_f_bounds(n_max: int) -> Op:
    def expect(doc):
        return _equal("values_checked", doc["details"]["values_checked"], n_max - 1)

    argv = ("verify", "f-bounds", "--n-max", str(n_max))
    return Op("f-bounds", argv, n_max - 1, _verify_check(expect), ("f_bound_violations", 2, n_max))


def op_claim_f(m: int) -> Op:
    pairs = 2 * m * (m - 1)  # two families, s in 1..m, delta in 2..m

    def expect(doc):
        eq = sorted(e["pair"] for e in doc["details"]["equalities"])
        return _equal("pairs_checked", doc["details"]["pairs_checked"], pairs) or _equal(
            "equality pairs", eq, [[1, 4], [4, 8]]
        )

    flags = ("--s-max", "--delta-max", "--k-max", "--n-max")
    argv = ("verify", "claim-F") + tuple(x for f in flags for x in (f, str(m)))
    return Op("claim-F", argv, pairs, _verify_check(expect))


def op_remark(m: int) -> Op:
    pairs = ((m - 3) + (m - 1)) * (m - 1)  # II r in 4..m, III r in 2..m, k in 2..m

    def expect(doc):
        return _equal("pairs_checked", doc["details"]["pairs_checked"], pairs)

    argv = ("verify", "remark-domination", "--r-max", str(m), "--k-max", str(m))
    return Op("remark-domination", argv, pairs, _verify_check(expect))


def op_lemma_n(sum_max: int) -> Op:
    count = multiset_count(sum_max)

    def expect(doc):
        d = doc["details"]
        # The largest efficient multiset outside {b} and {2, b} is {3, 5}.
        return _equal("multisets_checked", d["multisets_checked"], count) or _equal(
            "max sum outside", d["max_sum_of_efficient_outside_unbounded"], 8
        )

    argv = ("verify", "lemma-N", "--sum-max", str(sum_max))
    return Op("lemma-N", argv, count, _verify_check(expect))


def op_cor_decoupled(rep_max: int, k_max: int) -> Op:
    cases = catalog_case_count(rep_max)

    def expect(doc):
        d = doc["details"]
        return _equal("catalog_cases", d["catalog_cases"], cases) or _equal(
            "k_range", d["k_range"], [2, k_max]
        )

    argv = ("verify", "cor-decoupled", "--rep-max", str(rep_max), "--k-max", str(k_max))
    return Op("cor-decoupled", argv, cases * (k_max - 1), _verify_check(expect))


def op_catalog(rep_max: int) -> Op:
    cases = catalog_case_count(rep_max)

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(out)
        rows = doc["cases"]
        return (
            _equal("schema", doc["schema"], "agdim.catalog/1")
            or _equal("rows", len(rows), cases)
            or _equal("rep_dim over the cap", [r for r in rows if r["rep_dim"] > rep_max], [])
        )

    return Op("catalog", ("catalog", "--rep-max", str(rep_max)), cases, check)


def op_explain(kind: str, g: int, fmt: str) -> Op:
    want = dmax_closed(g)

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        if fmt == "json":
            doc = json.loads(out)
            return _equal("g", doc["g"], g) or _equal("dmc", doc["dmc"], want)
        return _equal("first line", out.splitlines()[0], f"dmc(A_{g}) = {want}")

    argv = ("explain", str(g)) + (("--format", "json") if fmt == "json" else ())
    return Op(kind, argv, 1, check)


def op_dmax(lo: int, hi: int) -> Op:
    want = [{"g": g, "dmax": dmax_closed(g)} for g in range(lo, hi + 1)]

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        return _equal("values", json.loads(out)["values"], want)

    return Op("dmax", ("dmax", f"{lo}..{hi}", "--format", "json"), 1, check)


def _tables_check_ok(rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if not out.startswith("fixture check passed"):
        return f"unexpected output {out[:80]!r}"
    return None


def _tables_json_ok(rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    ag = next(t for t in doc["tables"] if t["name"] == "ag")
    row = next(r for r in ag["rows"] if r["key"] == "dmc_ag")
    got = [(c["g"], c["value"]) for c in row["cells"]]
    want = [(g, dmax_closed(g)) for g in ag["genera"]]
    return _equal("schema", doc["schema"], "agdim.tables/1") or _equal("dmc_ag row", got, want)


TABLES_CHECK = Op("tables-check", ("tables", "--check"), 1, _tables_check_ok)
TABLES_JSON = Op("tables-json", ("tables", "--format", "json"), 1, _tables_json_ok)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Sizes per scale: "full" is what the benchmark measures, "tiny" is for the
# smoke test.  Full sizes keep one pass to a few seconds, so a run holds
# enough ops for steady medians and for its tail percentile.
SCAN = {
    "full": {
        "lemma-dmax": (8000, 12000),
        "prop-estimate": (100_000, 200_000),
        "dmax-piecewise": (10_000_000, 16_000_000),
        "f-bounds": (10_000_000, 24_000_000),
        "claim-F": (128, 192, 256),
        "remark-domination": (128, 192, 256),
    },
    "tiny": {
        "lemma-dmax": (300,),
        "prop-estimate": (3000,),
        "dmax-piecewise": (50_000,),
        "f-bounds": (50_000,),
        "claim-F": (12,),
        "remark-domination": (12,),
    },
}
_SCAN_OPS = {
    "lemma-dmax": op_lemma_dmax,
    "prop-estimate": op_prop_estimate,
    "dmax-piecewise": op_piecewise,
    "f-bounds": op_f_bounds,
    "claim-F": op_claim_f,
    "remark-domination": op_remark,
}
# query: genus ranges, op sizes and the run length.  A pass holds one op of
# each of eight kinds: explain on a hot genus, explain on a fresh genus, dmax
# a..b, tables --check, tables --format json, and the small pure-Python
# claims verify lemma-N, verify cor-decoupled and catalog, at sizes drawn per
# pass from the ranges below.  agdim has no usage data to weight the kinds
# by, so every kind gets an equal share.  An item of items_per_s is one op,
# as the kinds' domain items (multisets, cases, rows) are not comparable.
# The hot set is touched during
# warm-up, so explains on it hit the per-genus cache; each fresh explain
# misses it and adds one DP table that stays cached.  So that every run ends
# with the same cache (and peak RSS), a query run does a fixed number of
# passes, QUERY_PASSES_PER_S x --seconds, instead of stopping on time: at
# 50 s that is 450 passes, 3600 ops, about 45 s on a 2-vCPU x86 VM.  The
# fresh genera come in one fixed order, so the same genera are cached
# whatever the seed.
QUERY = {
    "full": {
        "g_max": 1500,
        "hot": 16,
        "lemma-N": range(20, 29),  # sum-max
        "cor-decoupled": (range(64, 129), range(4, 17)),  # rep-max, k-max
        "catalog": range(32, 97),  # rep-max
    },
    "tiny": {
        "g_max": 60,
        "hot": 4,
        "lemma-N": range(8, 13),
        "cor-decoupled": (range(8, 17), range(2, 5)),
        "catalog": range(8, 17),
    },
}
QUERY_PASSES_PER_S = 9


def _shuffled(rng: random.Random, ops: list[Op]) -> list[Op]:
    ops = list(ops)
    rng.shuffle(ops)
    return ops


def _repeat(build: Callable[[str], list[Op]]):
    def passes(rng: random.Random, scale: str) -> Iterator[list[Op]]:
        ops = build(scale)
        while True:
            yield _shuffled(rng, ops)

    return passes


def _scan_ops(scale: str) -> list[Op]:
    return [_SCAN_OPS[k](v) for k, sizes in SCAN[scale].items() for v in sizes]


def _scan_warmup(scale: str) -> list[Op]:
    return [_SCAN_OPS[k](sizes[0]) for k, sizes in SCAN[scale].items()]


def _query_hot(scale: str) -> list[int]:
    # The hot set does not depend on the seed: its cost is part of the mix.
    cfg = QUERY[scale]
    step = cfg["g_max"] // cfg["hot"]
    return [step * (i + 1) for i in range(cfg["hot"])]


def _query_warmup(scale: str) -> list[Op]:
    cfg = QUERY[scale]
    reps, ks = cfg["cor-decoupled"]
    return [op_explain("explain-hot", g, "json") for g in _query_hot(scale)] + [
        TABLES_CHECK,
        TABLES_JSON,
        op_lemma_n(cfg["lemma-N"][0]),
        op_cor_decoupled(reps[0], ks[0]),
        op_catalog(cfg["catalog"][0]),
    ]


def _query_passes(rng: random.Random, scale: str) -> Iterator[list[Op]]:
    cfg = QUERY[scale]
    hot = _query_hot(scale)
    fresh = sorted(set(range(2, cfg["g_max"] + 1)) - set(hot))
    random.Random(0).shuffle(fresh)  # one order for every seed (see QUERY)
    reps, ks = cfg["cor-decoupled"]
    for i in itertools.count():
        lo = rng.randint(1, cfg["g_max"])
        ops = [
            op_explain("explain-hot", rng.choice(hot), rng.choice(("json", "text"))),
            # Past the last fresh genus the stream repeats, as cache hits.
            op_explain("explain-fresh", fresh[i % len(fresh)], "json"),
            op_dmax(lo, lo + rng.randint(0, 199)),
            TABLES_CHECK,
            TABLES_JSON,
            op_lemma_n(rng.choice(cfg["lemma-N"])),
            op_cor_decoupled(rng.choice(reps), rng.choice(ks)),
            op_catalog(rng.choice(cfg["catalog"])),
        ]
        yield _shuffled(rng, ops)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("scan", 80, _scan_warmup, _repeat(_scan_ops)),
        Workload(
            "query", 99, _query_warmup, _query_passes, passes_per_s=QUERY_PASSES_PER_S, item_is_op=True
        ),
    )
}
