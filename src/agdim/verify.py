"""Registry of the exhaustive claim verifiers exposed by ``agdim verify``.

Each verifier sweeps a stated finite range and returns a
:class:`~agdim.report.VerificationReport`; ranges have safe defaults (the
values asserted by the test suite) and hard ceilings so a stray flag cannot
start a week-long scan.  The ceilings can be lifted with
``--unsafe-no-ceiling``, subject only to the kernels' int64 exactness guards,
which are checked against the whole range before any work starts.

Checks whose domain is a plain integer interval are split into blocks and may
run on a thread pool (``--jobs``); numpy releases the GIL inside its large
array loops, so blocks execute in parallel, and results are concatenated in
block order, so output is deterministic regardless of worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import kernels, pairs, satake
from .arith import dmax
from .efficiency import verify_efficiency_classification
from .moduli import dmc_mgct, mgct_interior_bound_holds
from .report import VerificationReport

__all__ = [
    "RangeParam",
    "Verifier",
    "REGISTRY",
    "CeilingExceeded",
    "resolve_jobs",
]

_MAX_LISTED = 50  # cap on counterexamples embedded in a report


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


@dataclass(frozen=True)
class Verifier:
    claim: str
    description: str
    params: tuple[RangeParam, ...]
    run: Callable[..., VerificationReport]


def resolve_jobs(jobs: int | None) -> int:
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _blocks(lo: int, hi: int, jobs: int, chunk: int = 1 << 21) -> Iterator[tuple[int, int]]:
    span = hi - lo + 1
    if span <= 0:
        return
    size = min(chunk, max(1, span // max(jobs, 1)))
    start = lo
    while start <= hi:
        end = min(start + size - 1, hi)
        yield (start, end)
        start = end + 1


def _run_blocked(fn: Callable[[int, int], object], lo: int, hi: int, jobs: int) -> list:
    blocks = list(_blocks(lo, hi, jobs))
    if jobs <= 1 or len(blocks) <= 1:
        return [fn(a, b) for a, b in blocks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda ab: fn(*ab), blocks))


def _listed(rows: list[dict]) -> list[dict]:
    return rows[:_MAX_LISTED]


# ---------------------------------------------------------------------------
# individual verifiers
# ---------------------------------------------------------------------------


def _verify_superadditivity(g_max: int = 4000, jobs: int = 1) -> VerificationReport:
    """dmax(g1+g2) >= dmax(g1) + dmax(g2) for all 1 <= g1 <= g2 with
    g1+g2 <= g_max, with equality exactly at g1 = 1, g2 even >= 16."""
    D = np.zeros(g_max + 1, dtype=np.int64)
    D[1:] = kernels.dmax_values(np.arange(1, g_max + 1, dtype=np.int64))
    results = _run_blocked(
        lambda a, b: kernels.superadditivity_scan(D, a, b), 1, g_max // 2, jobs
    )
    empty = np.empty((0, 2), dtype=np.int64)
    viol = np.concatenate([r[0] for r in results]) if results else empty
    eqs = np.concatenate([r[1] for r in results]) if results else empty
    if g_max - 1 >= 16:
        expected_g2 = np.arange(16, g_max, 2, dtype=np.int64)
        expected = np.stack(
            [np.ones_like(expected_g2), expected_g2], axis=1
        )
    else:
        expected = empty
    eq_ok = eqs.shape == expected.shape and bool(np.array_equal(eqs, expected))
    counterexamples = [
        {"g1": int(a), "g2": int(b), "reason": "superadditivity violated"}
        for a, b in viol.tolist()
    ]
    if not eq_ok:
        stray = [
            [int(a), int(b)]
            for a, b in eqs.tolist()
            if not (a == 1 and b >= 16 and b % 2 == 0)
        ]
        counterexamples.append(
            {
                "reason": "equality set differs from {(1, even g2 >= 16)}",
                "unexpected_equalities": stray[:_MAX_LISTED],
                "equalities_found": int(eqs.shape[0]),
                "equalities_expected": int(expected.shape[0]),
            }
        )
    status = "pass" if viol.shape[0] == 0 and eq_ok else "fail"
    return VerificationReport(
        claim="lemma-dmax",
        range={"g_max": g_max},
        status=status,
        counterexamples=_listed(counterexamples),
        witnesses=[
            {
                "equality_cases": "g1=1 and g2 even >= 16",
                "count": int(eqs.shape[0]),
            }
        ],
        details={"pairs_checked": int(g_max) * int(g_max) // 4},
    )


def _verify_piecewise(g_max: int = 1_000_000, jobs: int = 1) -> VerificationReport:
    """max(g-1, floor(floor(g/2)^2/4)) agrees with its three-branch form for
    all 1 <= g <= g_max."""
    results = _run_blocked(kernels.piecewise_mismatches, 1, g_max, jobs)
    bad = np.concatenate(results) if results else np.empty(0, dtype=np.int64)
    counterexamples = [{"g": int(g), "reason": "piecewise forms differ"} for g in bad.tolist()]
    return VerificationReport(
        claim="dmax-piecewise",
        range={"g_max": g_max},
        status="pass" if bad.size == 0 else "fail",
        counterexamples=_listed(counterexamples),
        witnesses=[],
        details={"values_checked": g_max},
    )


def _verify_f_bounds(n_max: int = 100_000, jobs: int = 1) -> VerificationReport:
    """(n^2 - 1)/4 <= F(n) <= n^2/4 in exact integers for 2 <= n <= n_max."""
    results = _run_blocked(kernels.f_bound_violations, 2, n_max, jobs)
    bad = np.concatenate(results) if results else np.empty(0, dtype=np.int64)
    counterexamples = [{"n": int(n), "reason": "half-product bound violated"} for n in bad.tolist()]
    return VerificationReport(
        claim="f-bounds",
        range={"n_max": n_max},
        status="pass" if bad.size == 0 else "fail",
        counterexamples=_listed(counterexamples),
        witnesses=[],
        details={"values_checked": n_max - 1},
    )


def _verify_efficiency(sum_max: int = 60, pair_max: int = 200, jobs: int = 1) -> VerificationReport:
    """Closed classification of efficient multisets vs the definition on the
    sum <= sum_max window, plus the two-element criterion up to pair_max."""
    report = verify_efficiency_classification(sum_max)
    mism = kernels.pair_efficiency_mismatches(2, pair_max) if pair_max >= 2 else None
    if mism is not None:
        report.range["pair_max"] = pair_max
        report.details["two_element_window"] = {
            "a_max": pair_max,
            "b_max": pair_max,
            "mismatches": [[int(a), int(b)] for a, b in mism.tolist()][:_MAX_LISTED],
        }
        if mism.shape[0]:
            report.status = "fail"
            report.counterexamples.append(
                {
                    "reason": "two-element criterion (a-2)(b-2) < 4 disagrees "
                    "with the definition",
                    "pairs": [[int(a), int(b)] for a, b in mism.tolist()][:_MAX_LISTED],
                }
            )
    return report


def _verify_claim_f(
    s_max: int = 64, delta_max: int = 64, k_max: int = 64, n_max: int = 64, jobs: int = 1
) -> VerificationReport:
    return pairs.verify_claim_f(s_max, delta_max, k_max, n_max)


def _verify_remark_domination(r_max: int = 64, k_max: int = 64, jobs: int = 1) -> VerificationReport:
    return pairs.verify_remark_domination(r_max, k_max)


def _verify_best_pair_bound(g_max: int = 2000, jobs: int = 1) -> VerificationReport:
    """best_indecomposable(g) <= dmax(g) for 1 <= g <= g_max, with equality
    exactly at g = 2 and even g >= 16.

    Genus 1 is degenerate: no family pair exists there and dmax(1) = 0, so
    both sides are 0 (points only).  The <= check covers it; the equality-set
    comparison, which is about genuine family pairs, starts at g = 2.
    """
    bi = kernels.best_indec_table(g_max)
    dm = np.zeros(g_max + 1, dtype=np.int64)
    dm[1:] = kernels.dmax_values(np.arange(1, g_max + 1, dtype=np.int64))
    over = np.nonzero(bi[1:] > dm[1:])[0] + 1
    eq = np.nonzero(bi[2:] == dm[2:])[0] + 2
    expected = np.array(
        sorted({2} | set(range(16, g_max + 1, 2))), dtype=np.int64
    ) if g_max >= 2 else np.empty(0, dtype=np.int64)
    expected = expected[expected <= g_max]
    eq_ok = bool(np.array_equal(eq, expected))
    counterexamples = [
        {"g": int(g), "best_pair": int(bi[g]), "dmax": int(dm[g]), "reason": "bound violated"}
        for g in over.tolist()
    ]
    if not eq_ok:
        counterexamples.append(
            {
                "reason": "equality genera differ from {2} union {even g >= 16}",
                "unexpected": [int(g) for g in np.setdiff1d(eq, expected).tolist()][:_MAX_LISTED],
                "missing": [int(g) for g in np.setdiff1d(expected, eq).tolist()][:_MAX_LISTED],
            }
        )
    status = "pass" if over.size == 0 and eq_ok else "fail"
    return VerificationReport(
        claim="prop-estimate",
        range={"g_max": g_max},
        status=status,
        counterexamples=_listed(counterexamples),
        witnesses=[{"equality_genera": "{2} union {even g >= 16}", "count": int(eq.size)}],
        details={
            "genera_checked": g_max,
            "degenerate_genus_1": "both sides 0 (points); <= checked, "
            "excluded from the equality set",
        },
    )


def _verify_mgct(jobs: int = 1) -> VerificationReport:
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
        status="pass" if not counterexamples else "fail",
        counterexamples=_listed(counterexamples),
        witnesses=[
            {
                "note": "interior hypothesis first fails at g=24",
                "dmax_24": dmax(24),
                "closed_form_24": (3 * 24) // 2 - 2,
            }
        ],
        details={"exact_range": [2, 23]},
    )


def _verify_catalog_bound(rep_max: int = 1024, k_max: int = 12, jobs: int = 1) -> VerificationReport:
    """(k-1) * hss_dim <= dmax(k * rep_dim) for every catalog case with
    rep_dim <= rep_max and every 2 <= k <= k_max, with equality only in
    family I at k = 2."""
    cases = list(satake.iter_cases(rep_max))
    hss = np.array([c.hss_dim for c in cases], dtype=np.int64)
    rep = np.array([c.rep_dim for c in cases], dtype=np.int64)
    counterexamples: list[dict] = []
    equality_count = 0
    for k in range(2, k_max + 1):
        bound = kernels.dmax_values(k * rep)
        lhs = (k - 1) * hss
        for idx in np.nonzero(lhs > bound)[0].tolist():
            counterexamples.append(
                {
                    "case": str(cases[idx].label),
                    "k": k,
                    "lhs": int(lhs[idx]),
                    "dmax": int(bound[idx]),
                    "reason": "dimension bound violated",
                }
            )
        for idx in np.nonzero(lhs == bound)[0].tolist():
            equality_count += 1
            if cases[idx].label.family != "I" or k != 2:
                counterexamples.append(
                    {
                        "case": str(cases[idx].label),
                        "k": k,
                        "reason": "equality outside family I with k=2",
                    }
                )
    return VerificationReport(
        claim="cor-decoupled",
        range={"rep_max": rep_max, "k_max": k_max},
        status="pass" if not counterexamples else "fail",
        counterexamples=_listed(counterexamples),
        witnesses=[
            {"equality_cases": "family I with k=2 only", "count": equality_count}
        ],
        details={"catalog_cases": len(cases), "k_range": [2, k_max]},
    )


REGISTRY: dict[str, Verifier] = {
    "lemma-dmax": Verifier(
        claim="lemma-dmax",
        description="superadditivity of the genus bound, with its exact equality set",
        params=(RangeParam("g_max", 4000, 100_000, limit=kernels.MAX_SAFE_G),),
        run=_verify_superadditivity,
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
            RangeParam("s_max", 64, 1024),
            RangeParam("delta_max", 64, 1024),
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
    ),
    "remark-domination": Verifier(
        claim="remark-domination",
        description="II/III families strictly dominated by unitary pairs",
        params=(RangeParam("r_max", 64, 2048), RangeParam("k_max", 64, 2048)),
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


def run_verifier(
    claim: str,
    overrides: dict[str, int] | None = None,
    jobs: int | None = None,
    unsafe_no_ceiling: bool = False,
) -> VerificationReport:
    """Run one registered verifier with optional range overrides; enforces
    per-flag ceilings unless explicitly disabled, and the kernels' int64
    limits always."""
    if claim not in REGISTRY:
        raise KeyError(f"unknown claim id {claim!r} (known: {sorted(REGISTRY)})")
    verifier = REGISTRY[claim]
    kwargs: dict[str, int] = {}
    overrides = overrides or {}
    for param in verifier.params:
        value = overrides.get(param.flag, param.default)
        option = f"--{param.flag.replace('_', '-')}"
        if value < param.minimum:
            raise ValueError(f"{option} must be >= {param.minimum}")
        if param.limit is not None and value > param.limit:
            raise CeilingExceeded(
                f"{option}={value} exceeds the int64-safe kernel ceiling "
                f"{param.limit} for {claim}; no flag lifts it"
            )
        if not unsafe_no_ceiling and value > param.ceiling:
            raise CeilingExceeded(
                f"{option}={value} exceeds the ceiling "
                f"{param.ceiling} for {claim}; pass --unsafe-no-ceiling to override"
            )
        kwargs[param.flag] = value
    unknown = set(overrides) - {p.flag for p in verifier.params}
    if unknown:
        raise ValueError(
            f"{claim} does not take range flags {sorted(unknown)}; "
            f"it takes {[p.flag for p in verifier.params]}"
        )
    return verifier.run(jobs=resolve_jobs(jobs), **kwargs)
