"""Registry of the exhaustive claim verifiers exposed by ``agdim verify``.

Each verifier sweeps a stated finite range and returns a
:class:`~agdim.report.VerificationReport`; ranges have safe defaults (the
values asserted by the test suite) and hard ceilings so a stray flag cannot
start a week-long scan.  The ceilings can be lifted with
``--unsafe-no-ceiling``, subject only to the kernels' int64 exactness guards
and, for ``lemma-dmax`` and ``prop-estimate``, whose arrays span the whole
range, to half of physical memory; both are checked against the whole range
before any work starts.

``dmax-piecewise`` and ``f-bounds`` split their integer interval into blocks
and run them on a thread pool with one worker per CPU: numpy releases the GIL
inside its large array loops, so blocks execute in parallel.  Each block is
one kernel call, which walks the block in chunks of ``kernels.CHUNK`` values
through buffers of its own and returns its count of failing values and the
first ``MAX_LISTED`` of them, so a block's memory does not grow with its
length, passing or failing.  The counts are summed and the listed values
kept in block order, so output is the same for any worker count.  ``lemma-dmax`` runs serially, as one scan call on
the whole table; the scan is one numpy slice difference per g1.

A failing verifier builds counterexample dicts only for the rows its report
lists (:func:`~agdim.report.first_listed`), so a broken kernel costs about the
memory of a passing run and the report still gives the full count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from . import kernels, pairs, satake
from .arith import dmax
from .efficiency import verify_efficiency_classification
from .moduli import dmc_mgct, mgct_interior_bound_holds
from .report import MAX_LISTED, VerificationReport, equality_diff, first_listed

__all__ = [
    "RangeParam",
    "Verifier",
    "REGISTRY",
    "CeilingExceeded",
    "range_args",
]

_WORKERS = os.cpu_count() or 1  # thread-pool size for blocked scans


class CeilingExceeded(ValueError):
    """A range flag exceeded its hard ceiling (usage error, not a finding)."""


@dataclass(frozen=True)
class RangeParam:
    """A range flag: ``ceiling`` is lifted by ``--unsafe-no-ceiling``;
    ``limit`` is the int64-safe ceiling of the kernel the flag feeds, which
    nothing lifts."""

    flag: str
    default: int
    ceiling: int
    minimum: int = 2
    limit: int | None = None

    def check(self, value: int, owner: str, unsafe_no_ceiling: bool) -> int:
        """Return ``value`` if ``owner`` (a claim or subcommand) may run with
        it; raise ``ValueError`` below the minimum and ``CeilingExceeded``
        above the kernel limit or, unless lifted, the ceiling."""
        option = f"--{self.flag.replace('_', '-')}"
        if value < self.minimum:
            raise ValueError(f"{option} must be >= {self.minimum}")
        if self.limit is not None and value > self.limit:
            raise CeilingExceeded(
                f"{option}={value} exceeds the int64-safe kernel ceiling "
                f"{self.limit} for {owner}; no flag lifts it"
            )
        if not unsafe_no_ceiling and value > self.ceiling:
            raise CeilingExceeded(
                f"{option}={value} exceeds the ceiling "
                f"{self.ceiling} for {owner}; pass --unsafe-no-ceiling to override"
            )
        return value


@dataclass(frozen=True)
class Verifier:
    """A registered claim.  ``bytes_per_genus`` is the peak memory of a
    passing run per genus of ``g_max``, for a claim whose arrays span the
    whole range; ``range_args`` refuses a range whose figure passes
    ``_memory_budget()``."""

    claim: str
    description: str
    params: tuple[RangeParam, ...]
    run: Callable[..., VerificationReport]
    bytes_per_genus: int = 0


def _memory_budget() -> int:
    """Half of physical memory, in bytes: the most a verifier may plan to use."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def _blocks(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    size = min(1 << 21, max(1, (hi - lo + 1) // _WORKERS))
    start = lo
    while start <= hi:
        end = min(start + size - 1, hi)
        yield (start, end)
        start = end + 1


def _run_blocked(fn: Callable[[int, int], object], lo: int, hi: int) -> list:
    blocks = list(_blocks(lo, hi))
    if _WORKERS <= 1 or len(blocks) <= 1:
        return [fn(a, b) for a, b in blocks]
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        return list(pool.map(lambda ab: fn(*ab), blocks))


def _blocked_failures(
    kernel: Callable[[int, int], kernels.Found], lo: int, hi: int
) -> tuple[list[int], int]:
    """The first ``MAX_LISTED`` failing values of a chunked kernel over
    lo..hi, run in blocks, and the number of failing values left out.  Each
    block lists its first ``MAX_LISTED``, so in block order they hold the
    first ``MAX_LISTED`` of the whole range."""
    found = _run_blocked(kernel, lo, hi)
    listed = [v for f in found for v in f.listed.tolist()][:MAX_LISTED]
    return listed, sum(f.total for f in found) - len(listed)


# ---------------------------------------------------------------------------
# individual verifiers
# ---------------------------------------------------------------------------


def _verify_superadditivity(g_max: int) -> VerificationReport:
    """dmax(g1+g2) >= dmax(g1) + dmax(g2) for all 1 <= g1 <= g2 with
    g1+g2 <= g_max, with equality exactly at g1 = 1, g2 even >= 16."""
    D = np.zeros(g_max + 1, dtype=np.int64)
    D[1:] = kernels.dmax_values(np.arange(1, g_max + 1, dtype=np.int64))
    scan = kernels.superadditivity_scan(D)
    expected_g2 = np.arange(16, g_max, 2, dtype=np.int64)
    counterexamples = [
        {"g1": int(a), "g2": int(b), "reason": "superadditivity violated"}
        for a, b in scan.violations.tolist()
    ]
    # Every expected row has g1 = 1, so each g1 >= 2 equality is unexpected
    # and the first MAX_LISTED of them give the same difference as all.
    counterexamples += equality_diff(
        "equality set differs from {(1, even g2 >= 16)}",
        scan.equalities,
        np.stack([np.ones_like(expected_g2), expected_g2], axis=1),
    )
    return VerificationReport(
        claim="lemma-dmax",
        range={"g_max": g_max},
        counterexamples=counterexamples,
        witnesses=[
            {
                "equality_cases": "g1=1 and g2 even >= 16",
                "count": int(scan.equalities_total),
            }
        ],
        details={"pairs_checked": int(g_max) * int(g_max) // 4},
        unlisted=scan.violations_total - len(scan.violations),
    )


def _verify_piecewise(g_max: int) -> VerificationReport:
    """max(g-1, floor(floor(g/2)^2/4)) agrees with its three-branch form for
    all 1 <= g <= g_max."""
    listed, unlisted = _blocked_failures(kernels.piecewise_mismatches, 1, g_max)
    return VerificationReport(
        claim="dmax-piecewise",
        range={"g_max": g_max},
        counterexamples=[{"g": g, "reason": "piecewise forms differ"} for g in listed],
        witnesses=[],
        details={"values_checked": g_max},
        unlisted=unlisted,
    )


def _verify_f_bounds(n_max: int) -> VerificationReport:
    """(n^2 - 1)/4 <= F(n) <= n^2/4 in exact integers for 2 <= n <= n_max."""
    listed, unlisted = _blocked_failures(kernels.f_bound_violations, 2, n_max)
    return VerificationReport(
        claim="f-bounds",
        range={"n_max": n_max},
        counterexamples=[{"n": n, "reason": "half-product bound violated"} for n in listed],
        witnesses=[],
        details={"values_checked": n_max - 1},
        unlisted=unlisted,
    )


def _verify_efficiency(sum_max: int, pair_max: int) -> VerificationReport:
    """Closed classification of efficient multisets vs the definition on the
    sum <= sum_max window, plus the two-element criterion on the whole
    triangle 2 <= a <= b <= pair_max."""
    report = verify_efficiency_classification(sum_max)
    listed = kernels.pair_efficiency_mismatches(pair_max, pair_max)[:MAX_LISTED].tolist()
    counterexamples = list(report.counterexamples)
    if listed:
        counterexamples.append(
            {
                "reason": "two-element criterion (a-2)(b-2) < 4 disagrees "
                "with the definition",
                "pairs": listed,
            }
        )
    return replace(
        report,
        range={**report.range, "pair_max": pair_max},
        counterexamples=counterexamples,
        details={
            **report.details,
            "two_element_window": {"a_max": pair_max, "b_max": pair_max, "mismatches": listed},
        },
    )


# Verifiers look up ``kernels.<name>`` and ``pairs.<name>`` when they run, and
# these two forward to ``pairs`` rather than registering its functions as
# ``run``: perfbench's tracer and BlockLog replace those module attributes,
# and a reference taken at import would bypass them.
def _verify_claim_f(s_max: int, delta_max: int, k_max: int, n_max: int) -> VerificationReport:
    return pairs.verify_claim_f(s_max, delta_max, k_max, n_max)


def _verify_remark_domination(r_max: int, k_max: int) -> VerificationReport:
    return pairs.verify_remark_domination(r_max, k_max)


def _verify_best_pair_bound(g_max: int) -> VerificationReport:
    """best_indecomposable(g) <= dmax(g) for 1 <= g <= g_max, with equality
    exactly at g = 2 and even g >= 16.

    Genus 1 is degenerate: no family pair exists there and dmax(1) = 0, so
    both sides are 0 (points only).  The <= check covers it; the equality-set
    comparison, which is about genuine family pairs, starts at g = 2.

    dmax is compared with the table ``kernels.CHUNK`` genera at a time, so
    its temporaries stay small and are reused from the heap; only the table
    and the equality genera span the whole range.
    """
    bi = kernels.best_indec_table(g_max)
    over, eq = [], []
    for lo in range(1, g_max + 1, kernels.CHUNK):
        gs = np.arange(lo, min(lo + kernels.CHUNK, g_max + 1), dtype=np.int64)
        dm, best = kernels.dmax_values(gs), bi[lo : lo + gs.size]
        over.append(np.flatnonzero(best > dm) + lo)
        eq.append(np.flatnonzero(best == dm) + lo)
    eq = np.concatenate(eq)
    eq = eq[np.searchsorted(eq, 2) :]
    listed, unlisted = first_listed(np.concatenate(over))
    counterexamples = [
        {"g": g, "best_pair": int(bi[g]), "dmax": dm, "reason": "bound violated"}
        for g, dm in zip(listed.tolist(), kernels.dmax_values(listed).tolist())
    ]
    counterexamples += equality_diff(
        "equality genera differ from {2} union {even g >= 16}",
        eq,
        np.concatenate(([2], np.arange(16, g_max + 1, 2))),
    )
    return VerificationReport(
        claim="prop-estimate",
        range={"g_max": g_max},
        counterexamples=counterexamples,
        witnesses=[{"equality_genera": "{2} union {even g >= 16}", "count": int(eq.size)}],
        details={
            "genera_checked": g_max,
            "degenerate_genus_1": "both sides 0 (points); <= checked, "
            "excluded from the equality set",
        },
        unlisted=unlisted,
    )


def _verify_mgct() -> VerificationReport:
    """Boundary recursion equals floor(3g/2) - 2 for 2 <= g <= 23, and the
    interior hypothesis dmax(g) < floor(3g/2) - 2 holds for 4 <= g <= 23."""
    counterexamples: list[dict] = []
    for g in range(2, 24):
        closed = (3 * g) // 2 - 2
        try:
            result = dmc_mgct(g)
        except RuntimeError as exc:
            counterexamples.append({"g": g, "reason": str(exc)})
            continue
        if result.exact != closed:
            counterexamples.append(
                {"g": g, "recursion": result.exact, "closed_form": closed}
            )
    for g in range(4, 24):
        if not mgct_interior_bound_holds(g):
            counterexamples.append(
                {"g": g, "reason": "interior hypothesis dmax(g) < floor(3g/2)-2 fails"}
            )
    return VerificationReport(
        claim="cor-C",
        range={"g_min": 2, "g_max": 23},
        counterexamples=counterexamples,
        witnesses=[
            {
                "note": "interior hypothesis first fails at g=24",
                "dmax_24": dmax(24),
                "closed_form_24": (3 * 24) // 2 - 2,
            }
        ],
        details={"exact_range": [2, 23]},
    )


def _verify_catalog_bound(rep_max: int, k_max: int) -> VerificationReport:
    """(k-1) * hss_dim <= dmax(k * rep_dim) for every catalog case with
    rep_dim <= rep_max and every 2 <= k <= k_max, with equality only in
    family I at k = 2.

    The cases are read as arrays from the grids of :func:`satake.family_grid`
    (family I in several pieces), concatenated in catalog order; a label is
    built only for a counterexample the report lists, from the grid that
    holds its index.  dmax(k * rep_dim) is evaluated once per distinct
    rep_dim (at most rep_max of them, against about rep_max^2 / 4 cases) and
    gathered to the cases.
    """
    grids = list(satake.family_grid(rep_max))
    hss = np.concatenate([g.hss_dim for g in grids])
    rep = np.concatenate([g.rep_dim for g in grids])
    reps, rep_at = np.unique(rep, return_inverse=True)
    sizes = [len(g.rep_dim) for g in grids]
    starts = np.cumsum([0, *sizes])
    in_family_i = np.repeat([g.family == "I" for g in grids], sizes)

    def case(idx: int) -> str:
        at = int(np.searchsorted(starts, idx, side="right")) - 1
        return str(grids[at].label(idx - int(starts[at])))

    counterexamples: list[dict] = []
    unlisted = 0
    equality_count = 0
    for k in range(2, k_max + 1):
        lhs = (k - 1) * hss
        bound = kernels.dmax_values(k * reps)[rep_at]
        hits = np.flatnonzero(lhs >= bound)
        over = hits[lhs[hits] > bound[hits]]
        equal = hits[lhs[hits] == bound[hits]]
        equality_count += equal.size
        outside = equal[~in_family_i[equal]] if k == 2 else equal
        rows = [
            {
                "case": case(idx),
                "k": k,
                "lhs": int(lhs[idx]),
                "dmax": int(bound[idx]),
                "reason": "dimension bound violated",
            }
            for idx in over[: MAX_LISTED - len(counterexamples)].tolist()
        ]
        rows += [
            {"case": case(idx), "k": k, "reason": "equality outside family I with k=2"}
            for idx in outside[: MAX_LISTED - len(counterexamples) - len(rows)].tolist()
        ]
        counterexamples += rows
        unlisted += over.size + outside.size - len(rows)
    return VerificationReport(
        claim="cor-decoupled",
        range={"rep_max": rep_max, "k_max": k_max},
        counterexamples=counterexamples,
        witnesses=[
            {"equality_cases": "family I with k=2 only", "count": equality_count}
        ],
        details={"catalog_cases": int(rep.size), "k_range": [2, k_max]},
        unlisted=unlisted,
    )


REGISTRY: dict[str, Verifier] = {
    "lemma-dmax": Verifier(
        claim="lemma-dmax",
        description="superadditivity of the genus bound, with its exact equality set",
        params=(RangeParam("g_max", 4000, 100_000, limit=kernels.MAX_SAFE_G),),
        run=_verify_superadditivity,
        # at the scan's first row: the table (8), the row buffers (17) and
        # the row's equality genera in a few int64 temporaries (about 20)
        bytes_per_genus=48,
    ),
    "dmax-piecewise": Verifier(
        claim="dmax-piecewise",
        description="agreement of the max form and the three-branch form of the genus bound",
        params=(RangeParam("g_max", 1_000_000, 100_000_000, limit=kernels.MAX_SAFE_PIECEWISE_G),),
        run=_verify_piecewise,
    ),
    "f-bounds": Verifier(
        claim="f-bounds",
        description="quadratic sandwich bounds for the half-product F(n)",
        params=(RangeParam("n_max", 100_000, 100_000_000, limit=kernels.MAX_SAFE_N),),
        run=_verify_f_bounds,
    ),
    "lemma-N": Verifier(
        claim="lemma-N",
        description="closed classification of efficient multisets vs the definition",
        params=(
            RangeParam("sum_max", 60, 70),
            RangeParam("pair_max", 200, 20_000, limit=kernels.MAX_SAFE_PAIR_B),
        ),
        run=_verify_efficiency,
    ),
    "claim-F": Verifier(
        claim="claim-F",
        description="division-algebra pair families dominated by unitary pairs",
        params=(
            RangeParam("s_max", 64, 1024, limit=pairs.MAX_SAFE_CLAIM_F),
            RangeParam("delta_max", 64, 1024, limit=pairs.MAX_SAFE_CLAIM_F),
            RangeParam("k_max", 64, 1024),
            RangeParam("n_max", 64, 1024),
        ),
        run=_verify_claim_f,
    ),
    "prop-estimate": Verifier(
        claim="prop-estimate",
        description="best single-family pair vs the genus bound, with equality genera",
        params=(RangeParam("g_max", 2000, 10_000_000, limit=kernels.MAX_SAFE_G),),
        run=_verify_best_pair_bound,
        # the int64 table (8) with, while it is built, F(n) and a row for
        # n <= g_max / 2 (8); or the table, the equality genera (4) and the
        # expected ones (twice 4) while they are compared
        bytes_per_genus=24,
    ),
    "remark-domination": Verifier(
        claim="remark-domination",
        description="II/III families strictly dominated by unitary pairs",
        params=(
            RangeParam("r_max", 64, 2048, limit=pairs.MAX_SAFE_REMARK),
            RangeParam("k_max", 64, 2048, limit=pairs.MAX_SAFE_REMARK),
        ),
        run=_verify_remark_domination,
    ),
    "cor-C": Verifier(
        claim="cor-C",
        description="compact-type boundary recursion and its interior hypothesis",
        params=(),
        run=_verify_mgct,
    ),
    "cor-decoupled": Verifier(
        claim="cor-decoupled",
        description="catalog dimension bound (k-1) hss <= dmax(k rep), equality set",
        params=(RangeParam("rep_max", 1024, 2048), RangeParam("k_max", 12, 64)),
        run=_verify_catalog_bound,
    ),
}


def range_args(
    claim: str,
    overrides: dict[str, int] | None = None,
    unsafe_no_ceiling: bool = False,
) -> dict[str, int]:
    """The range arguments one registered verifier runs with: its defaults
    with ``overrides`` applied, each checked against its minimum, its
    kernel's int64 limit always and its ceiling unless explicitly lifted.
    A usage error raises ``ValueError`` (``CeilingExceeded`` among them)."""
    if claim not in REGISTRY:
        raise KeyError(f"unknown claim id {claim!r} (known: {sorted(REGISTRY)})")
    verifier = REGISTRY[claim]
    overrides = overrides or {}
    kwargs = {
        p.flag: p.check(overrides.get(p.flag, p.default), claim, unsafe_no_ceiling)
        for p in verifier.params
    }
    unknown = set(overrides) - {p.flag for p in verifier.params}
    if unknown:
        raise ValueError(
            f"{claim} does not take range flags {sorted(unknown)}; "
            f"it takes {[p.flag for p in verifier.params]}"
        )
    if verifier.bytes_per_genus:
        need, budget = verifier.bytes_per_genus * kwargs["g_max"], _memory_budget()
        if need > budget:
            raise CeilingExceeded(
                f"--g-max={kwargs['g_max']} needs about {need / 2**30:.1f} GiB for {claim}, "
                f"more than half of physical memory ({budget / 2**30:.1f} GiB); no flag lifts it"
            )
    return kwargs


def run_verifier(
    claim: str,
    overrides: dict[str, int] | None = None,
    unsafe_no_ceiling: bool = False,
) -> VerificationReport:
    """Run one registered verifier with the arguments of :func:`range_args`."""
    return REGISTRY[claim].run(**range_args(claim, overrides, unsafe_no_ceiling))
