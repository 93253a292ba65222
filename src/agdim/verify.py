"""Registry of the exhaustive claim verifiers exposed by ``agdim verify``.

Each verifier sweeps a stated finite range and returns a
:class:`~agdim.report.VerificationReport`; ranges have safe defaults (the
values asserted by the test suite) and hard ceilings so a stray flag cannot
start a week-long scan.  The ceilings can be lifted with
``--unsafe-no-ceiling``, subject only to the kernels' int64 exactness guards
and, for a claim whose arrays grow with its range, to half of physical
memory.  :func:`admit` is the one admission rule, for ``verify``,
``catalog`` and ``explain``: it checks the whole range before any work.

``dmax-piecewise`` and ``f-bounds`` are one kernel call over the whole range,
on the calling thread.  The call walks the range in stretches of
``kernels.CHUNK`` values, each as its even values, through buffers of its
own and returns its count of failing values and the first ``MAX_LISTED`` of
them, so its memory does not grow with the range, passing or failing.
``lemma-dmax`` writes its table and ``prop-estimate`` compares its table
with dmax chunk by chunk of ``kernels._chunks``, the kernels' chunk walk; this
module allocates no chunk buffer of its own and never writes into the
values it walks.  ``lemma-dmax`` then scans its table in one call, which
clears whole blocks of pairs by exact bounds and takes a numpy slice
difference per g1 that they leave, checking the first row against the
stated equalities as it forms it.  Every verifier hands its failures to
:meth:`~agdim.report.VerificationReport.add` as it finds them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels, pairs, satake
from .arith import dmax
from .efficiency import verify_efficiency_classification
from .moduli import dmc_mgct, mgct_interior_bound_holds
from .report import MAX_LISTED, VerificationReport, equality_diff

__all__ = [
    "RangeParam",
    "Verifier",
    "REGISTRY",
    "CeilingExceeded",
    "admit",
    "range_args",
    "run_verifier",
]


class CeilingExceeded(ValueError):
    """A range flag exceeded its hard ceiling (usage error, not a finding)."""


@dataclass(frozen=True)
class RangeParam:
    """A range input, named as the user types it (``--g-max``, or ``g`` for
    a positional): ``ceiling`` is lifted by ``--unsafe-no-ceiling``;
    ``limit`` is the int64-safe ceiling of the kernel the input feeds, which
    nothing lifts."""

    name: str
    default: int | None = None
    ceiling: int | None = None
    minimum: int = 2
    limit: int | None = None

    @property
    def keyword(self) -> str:
        return self.name.lstrip("-").replace("-", "_")

    def check(self, value: int, owner: str, unsafe_no_ceiling: bool) -> int:
        """Return ``value`` if ``owner`` (a claim or subcommand) may run with
        it; raise ``ValueError`` below the minimum and ``CeilingExceeded``
        above the kernel limit or, unless lifted, the ceiling."""
        if value < self.minimum:
            raise ValueError(f"{self.name} must be >= {self.minimum}")
        if self.limit is not None and value > self.limit:
            raise CeilingExceeded(
                f"{self.name}={value} exceeds the int64-safe kernel ceiling "
                f"{self.limit} for {owner}; no flag lifts it"
            )
        if self.ceiling is not None and not unsafe_no_ceiling and value > self.ceiling:
            raise CeilingExceeded(
                f"{self.name}={value} exceeds the ceiling "
                f"{self.ceiling} for {owner}; pass --unsafe-no-ceiling to override"
            )
        return value


@dataclass(frozen=True)
class Verifier:
    """A registered claim, whose id is its key in ``REGISTRY``.  A claim
    whose arrays grow with its range states ``peak_bytes``, its peak memory,
    passing or failing, as a function of its checked range arguments."""

    params: tuple[RangeParam, ...]
    run: Callable[..., VerificationReport]
    peak_bytes: Callable[..., int] | None = None


def _memory_budget() -> int:
    """Half of physical memory, in bytes: the most a command may plan to use."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


# ---------------------------------------------------------------------------
# individual verifiers
# ---------------------------------------------------------------------------


def _verify_superadditivity(g_max: int) -> VerificationReport:
    """dmax(g1+g2) >= dmax(g1) + dmax(g2) for all 1 <= g1 <= g2 with
    g1+g2 <= g_max, with equality exactly at g1 = 1, g2 even >= 16."""
    D = np.zeros(g_max + 1, dtype=np.int64)
    for lo, gs, _, _ in kernels._chunks(1, g_max, ints=0, masks=0):
        D[lo : lo + gs.size] = kernels.dmax_values(gs)
    del gs  # the chunk's values, freed before the scan
    scan = kernels.superadditivity_scan(D)
    report = VerificationReport(
        claim="lemma-dmax",
        range={"g_max": g_max},
        witnesses=[
            {
                "equality_cases": "g1=1 and g2 even >= 16",
                "count": int(scan.equalities_total),
            }
        ],
        details={"pairs_checked": int(g_max) * int(g_max) // 4},
    )
    report.add(
        scan.violations,
        lambda v: {"g1": v[0], "g2": v[1], "reason": "superadditivity violated"},
        scan.violations_total,
    )
    report.add(
        equality_diff(
            "equality set differs from {(1, even g2 >= 16)}",
            scan.unexpected.tolist(),
            [[1, g] for g in scan.missing.tolist()],
        )
    )
    return report


def _verify_blocked(
    claim: str, kernel: str, key: str, lo: int, hi: int, reason: str
) -> VerificationReport:
    """The report of one ``kernels.<kernel>`` call over lo..hi: each failing
    value listed as ``{key: value, "reason": reason}``."""
    report = VerificationReport(
        claim=claim, range={f"{key}_max": hi}, details={"values_checked": hi - lo + 1}
    )
    found = getattr(kernels, kernel)(lo, hi)
    report.add(found.listed, lambda v: {key: v, "reason": reason}, found.total)
    return report


def _verify_piecewise(g_max: int) -> VerificationReport:
    """max(g-1, floor(floor(g/2)^2/4)) agrees with its three-branch form for
    all 1 <= g <= g_max."""
    return _verify_blocked("dmax-piecewise", "piecewise_mismatches", "g", 1, g_max, "piecewise forms differ")


def _verify_f_bounds(n_max: int) -> VerificationReport:
    """(n^2 - 1)/4 <= F(n) <= n^2/4 in exact integers for 2 <= n <= n_max."""
    return _verify_blocked("f-bounds", "f_bound_violations", "n", 2, n_max, "half-product bound violated")


def _verify_efficiency(sum_max: int, pair_max: int) -> VerificationReport:
    """Closed classification of efficient multisets vs the definition on the
    sum <= sum_max window, plus the two-element criterion on the whole
    triangle 2 <= a <= b <= pair_max."""
    report = verify_efficiency_classification(sum_max)
    listed = kernels.pair_efficiency_mismatches(pair_max, pair_max).listed.tolist()
    if listed:
        reason = "two-element criterion (a-2)(b-2) < 4 disagrees with the definition"
        report.add([{"reason": reason, "pairs": listed}])
    report.range["pair_max"] = pair_max
    report.details["two_element_window"] = {
        "a_max": pair_max,
        "b_max": pair_max,
        "mismatches": listed,
    }
    return report


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

    dmax is compared with the table chunk by chunk of ``kernels._chunks``,
    through its buffers, so only the table spans the whole range.  The
    rule's even genera g >= 16 are one strided slice of the chunk's stated
    mask.  The violations and the first ``MAX_LISTED`` unexpected and
    missing genera are listed from the chunk's masks by
    ``kernels._listing``, and the equalities counted.
    """
    bi = kernels.best_indec_table(g_max)
    report = VerificationReport(
        claim="prop-estimate",
        range={"g_max": g_max},
        details={
            "genera_checked": g_max,
            "degenerate_genus_1": "both sides 0 (points); <= checked, "
            "excluded from the equality set",
        },
    )
    unexpected, missing, equalities = [], [], 0
    for lo, gs, (dm,), (failing, equal, stated) in kernels._chunks(1, g_max, ints=1, masks=3):
        best = bi[lo : lo + gs.size]
        dm = kernels._dmax(gs, dm, failing)
        report.add(
            kernels._listing(np.greater(best, dm, out=failing), report.room),
            lambda i: {
                "g": lo + i,
                "best_pair": int(best[i]),
                "dmax": int(dm[i]),
                "reason": "bound violated",
            },
        )
        np.equal(best, dm, out=equal)
        stated[:] = False
        stated[16 - lo if lo <= 16 else lo % 2 :: 2] = True  # even g >= 16
        if lo == 1:
            equal[0] = False  # genus 1
        if lo <= 2 < lo + gs.size:
            stated[2 - lo] = True
        equalities += int(np.count_nonzero(equal))
        for listed, (a, b) in ((unexpected, (equal, stated)), (missing, (stated, equal))):
            a_not_b = np.greater(a, b, out=failing)
            listed += [lo + i for i in kernels._listing(a_not_b, MAX_LISTED - len(listed))[1]]
    report.add(
        equality_diff(
            "equality genera differ from {2} union {even g >= 16}", unexpected, missing
        )
    )
    report.witnesses = [{"equality_genera": "{2} union {even g >= 16}", "count": equalities}]
    return report


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
    gathered to the cases.  Per k, the cases over the bound and those on
    it are two masks, each counted and listed by ``kernels._listing``.
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

    report = VerificationReport(
        claim="cor-decoupled",
        range={"rep_max": rep_max, "k_max": k_max},
        details={"catalog_cases": int(rep.size), "k_range": [2, k_max]},
    )
    equality_count = 0
    for k in range(2, k_max + 1):
        lhs = (k - 1) * hss
        bound = kernels.dmax_values(k * reps)[rep_at]
        if not np.greater_equal(lhs, bound).any():  # no case on or over the bound
            continue
        report.add(
            kernels._listing(lhs > bound, report.room),
            lambda idx: {
                "case": case(idx),
                "k": k,
                "lhs": int(lhs[idx]),
                "dmax": int(bound[idx]),
                "reason": "dimension bound violated",
            },
        )
        equal = lhs == bound
        equality_count += int(np.count_nonzero(equal))
        if k == 2:
            np.greater(equal, in_family_i, out=equal)  # equal and not in family I
        report.add(
            kernels._listing(equal, report.room),
            lambda idx: {"case": case(idx), "k": k, "reason": "equality outside family I with k=2"},
        )
    report.witnesses = [{"equality_cases": "family I with k=2 only", "count": equality_count}]
    return report


# peak_bytes figures are tracemalloc peaks per unit of range; tests pin the
# claims that state none.
REGISTRY: dict[str, Verifier] = {
    "lemma-dmax": Verifier(
        params=(RangeParam("--g-max", 4000, 10_000_000, limit=kernels.MAX_SAFE_G),),
        run=_verify_superadditivity,
        # per genus, passing: 25.0-25.2 from 2e4 to 1e7, within one chunk
        # or past it (the table and the scan's row buffer, 8 bytes each,
        # and the first band's arrays of block extremes, 8 in all, freed
        # before the rows they leave are scanned); 25.2 at 2e4 (26.9 at
        # 2e3) when every pair is an equality, and 25.0-25.2 from 2e4 to
        # 1e5 when every pair is violated (D = -g^2); that fault's own
        # temporaries in the table build peak at 28.8 beyond 64 kB at 2e4,
        # within one chunk.  30 is 10% above 27, and 64 kB for a small range
        peak_bytes=lambda g_max: 30 * g_max + 2**16,
    ),
    "dmax-piecewise": Verifier(
        params=(RangeParam("--g-max", 1_000_000, 100_000_000, limit=kernels.MAX_SAFE_PIECEWISE_G),),
        run=_verify_piecewise,
    ),
    "f-bounds": Verifier(
        params=(RangeParam("--n-max", 100_000, 100_000_000, limit=kernels.MAX_SAFE_N),),
        run=_verify_f_bounds,
    ),
    "lemma-N": Verifier(
        params=(
            RangeParam("--sum-max", 60, 70),
            RangeParam("--pair-max", 200, 20_000, limit=kernels.MAX_SAFE_PAIR_B),
        ),
        run=_verify_efficiency,
        # a pair-kernel block: PAIR_BLOCK cells or, past that, one row of
        # pair_max, at 27 bytes per cell (34 at 2e4)
        peak_bytes=lambda sum_max, pair_max: 32 * (pair_max + kernels.PAIR_BLOCK),
    ),
    "claim-F": Verifier(
        params=(
            RangeParam("--s-max", 64, 1024, limit=pairs.MAX_SAFE_CLAIM_F),
            RangeParam("--delta-max", 64, 1024, limit=pairs.MAX_SAFE_CLAIM_F),
            RangeParam("--k-max", 64, 1024),
            RangeParam("--n-max", 64, 1024),
        ),
        run=_verify_claim_f,
    ),
    "prop-estimate": Verifier(
        params=(RangeParam("--g-max", 2000, 10_000_000, limit=kernels.MAX_SAFE_G),),
        run=_verify_best_pair_bound,
        # per genus, 16 from 1e6 to 4e6, passing or failing (the table, F(n)
        # and a row for n <= g_max / 2); 12% above that, and 2 MB for one
        # chunk: its buffers, 19 bytes per genus of a full chunk (27 in all
        # for a one-chunk range), and up to 1.2 MB under the all-equal fault
        peak_bytes=lambda g_max: 18 * g_max + 2**21,
    ),
    "remark-domination": Verifier(
        params=(
            RangeParam("--r-max", 64, 2048, limit=pairs.MAX_SAFE_REMARK),
            RangeParam("--k-max", 64, 2048, limit=pairs.MAX_SAFE_REMARK),
        ),
        run=_verify_remark_domination,
        # the command's, through cli.main to --out, passing or not: per unit
        # of r_max, two witness rows, 400-465 bytes (512 is 10% above); per
        # unit of k_max, a row wider than a block; and one block of
        # PAIR_BLOCK cells, 30-60 bytes each: 0.96 MB at 256/256
        peak_bytes=lambda r_max, k_max: 512 * r_max + 160 * k_max + 64 * kernels.PAIR_BLOCK,
    ),
    "cor-C": Verifier(params=(), run=_verify_mgct),
    "cor-decoupled": Verifier(
        # dmax_values(k * rep_dim) takes k <= k_max and rep_dim <= rep_max:
        # limits whose product, 2^16 * (MAX_SAFE_G // 2^16), is at most
        # MAX_SAFE_G refuse every genus past the kernel's ceiling up front
        params=(
            RangeParam("--rep-max", 1024, 2048, limit=2**16),
            RangeParam("--k-max", 12, 64, limit=kernels.MAX_SAFE_G // 2**16),
        ),
        run=_verify_catalog_bound,
        # the whole grid: about rep_max^2 / 4 cases at 89-99 bytes each (64 to
        # 1024), plus 64 kB of fixed cost that dominates small ranges
        peak_bytes=lambda rep_max, k_max: 26 * rep_max**2 + 2**16,
    ),
}


def admit(
    owner: str, params: tuple[RangeParam, ...], overrides: dict[str, int],
    unsafe_no_ceiling: bool = False, peak_bytes: Callable[..., int] | None = None,
) -> dict[str, int]:
    """The one admission rule of ``verify``, ``catalog`` and ``explain``:
    the keyword arguments ``owner`` runs with, its ``params``' defaults with
    ``overrides`` applied, each checked by :meth:`RangeParam.check` in order;
    then no unknown override; then ``peak_bytes`` of them, if ``owner``
    states it, within ``_memory_budget()``.  A usage error raises
    ``ValueError`` (``CeilingExceeded`` among them)."""
    kwargs = {
        p.keyword: p.check(overrides.get(p.keyword, p.default), owner, unsafe_no_ceiling)
        for p in params
    }
    unknown = set(overrides) - set(kwargs)
    if unknown:
        raise ValueError(
            f"{owner} does not take range flags {sorted(unknown)}; it takes {list(kwargs)}"
        )
    if peak_bytes and (need := peak_bytes(**kwargs)) > (budget := _memory_budget()):
        given = " ".join(f"{p.name}={kwargs[p.keyword]}" for p in params)
        raise CeilingExceeded(
            f"{given} needs about {need / 2**30:.1f} GiB for {owner}, "
            f"more than half of physical memory ({budget / 2**30:.1f} GiB); no flag lifts it"
        )
    return kwargs


def range_args(
    claim: str, overrides: dict[str, int] | None = None, unsafe_no_ceiling: bool = False
) -> dict[str, int]:
    """The range arguments one registered verifier runs with, by :func:`admit`."""
    if claim not in REGISTRY:
        raise KeyError(f"unknown claim id {claim!r} (known: {sorted(REGISTRY)})")
    verifier = REGISTRY[claim]
    return admit(claim, verifier.params, overrides or {}, unsafe_no_ceiling, verifier.peak_bytes)


def run_verifier(
    claim: str, overrides: dict[str, int] | None = None, unsafe_no_ceiling: bool = False,
    *, admitted: dict[str, int] | None = None,
) -> VerificationReport:
    """Run one registered verifier with the arguments of :func:`range_args`,
    or with ``admitted``, arguments that :func:`range_args` already
    returned for ``claim``."""
    if admitted is None:
        admitted = range_args(claim, overrides, unsafe_no_ceiling)
    return REGISTRY[claim].run(**admitted)
