"""Run one benchmark workload against agdim and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; agdim is imported from ``src/`` there.
Each workload runs in this one process as a closed loop with one caller:
an op (one ``agdim.cli.main(argv)`` call with stdout captured) starts when
the previous one returns.  The ops come from ``workloads.py`` in whole
passes, drawn from ``--seed``; warm-up ops run first and are not measured.
A run stops when another pass would overrun ``--seconds``, except on
``query``, whose run does a fixed number of passes per second asked, so
that its cache ends the same in every run (see ``workloads.QUERY``).
Every op's output is checked against an oracle that does not use agdim.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` wraps each layer's public functions (``tracer.py``), runs half
as long, and prints the per-layer metrics, including the tracing overhead
against an untraced child run of the same ops.

The last stdout line is the result object; the line before it records
provenance and counts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, BlockLog, Op  # noqa: E402

now = time.perf_counter
SETUP_STARTS = 15  # fresh interpreters per run; setup_s is their median
DIGEST_PASSES = 20  # passes hashed into op_list_digest
HARD_CAP_S = 120  # a run stops here even short of its tail sample count


class Usage(Exception):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_agdim():
    if not (SRC / "agdim" / "__init__.py").is_file():
        raise Usage(f"no agdim sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import agdim.cli
    import agdim.kernels

    if Path(agdim.__file__).resolve().parent != SRC / "agdim":
        raise Usage(f"imported agdim from {agdim.__file__}, not from {SRC}")
    return agdim


class Setup:
    """Fresh interpreters that import numpy and agdim.cli.  ``setup_s`` is
    the median of their wall times.  The starts are spread over the run,
    between passes, so one slow stretch of the machine cannot set it."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.inner: list[dict] = []

    def start_due(self, progress: float) -> None:
        """Start the fresh interpreters due once ``progress`` (0..1) of the
        run is done."""
        while len(self.walls) < SETUP_STARTS and len(self.walls) <= progress * SETUP_STARTS:
            self.start()

    def start(self) -> None:
        t0 = now()
        proc = subprocess.run(
            [sys.executable, str(HERE / "import_probe.py"), str(SRC)],
            capture_output=True,
            text=True,
            check=True,
        )
        self.walls.append(now() - t0)
        self.inner.append(json.loads(proc.stdout))


def run_op(cli, blocks: BlockLog, op: Op) -> tuple[float, float, str | None]:
    """Run one op; returns (latency s, process CPU s, failure or None)."""
    out, err = io.StringIO(), io.StringIO()
    blocks.calls.clear()
    t0, c0 = now(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op.argv))
        problem = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        problem = f"raised {exc!r}"
    latency, cpu = now() - t0, time.process_time() - c0
    if problem is None:
        try:
            problem = op.check(rc, out.getvalue())
        except Exception as exc:  # malformed output is a failed op too
            problem = f"oracle could not read the output: {exc!r}"
    if problem is None and op.tiles is not None:
        problem = blocks.tiling_problem(op.tiles)
    return latency, cpu, problem


class Loop:
    """Closed loop over whole passes (or exactly ``max_ops`` ops)."""

    def __init__(self, agdim, workload, seed: int, scale: str):
        self.cli = agdim.cli
        self.blocks = BlockLog(agdim.kernels)
        self.workload = workload
        self.scale = scale
        self.passes = workload.passes(random.Random(seed), scale)
        self.latencies: list[float] = []
        self.cpu = 0.0
        self.kind_items: Counter = Counter()
        self.kind_latencies: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.pass_sizes: list[int] = []
        self.setup = Setup()

    def _one(self, op: Op, timed: bool) -> None:
        latency, cpu, problem = run_op(self.cli, self.blocks, op)
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{' '.join(op.argv)}: {problem}")
        if timed:
            self.latencies.append(latency)
            self.cpu += cpu
            self.kind_items[op.kind] += op.items
            self.kind_latencies.setdefault(op.kind, []).append(latency)

    def warmup(self) -> None:
        for op in self.workload.warmup(self.scale):
            self._one(op, timed=False)

    def run(self, seconds: float, max_ops: int | None, min_ops: int) -> None:
        """Measure whole passes until ``seconds`` would be overrun (and at
        least ``min_ops`` ops), or exactly ``max_ops`` ops, or, on a workload
        with ``passes_per_s``, exactly that many passes per second asked."""
        rate = self.workload.passes_per_s if max_ops is None else None
        n_passes = max(1, round(rate * seconds)) if rate else None
        t_start = now()
        pass_walls: list[float] = []
        while True:
            elapsed = now() - t_start
            self.setup.start_due(len(pass_walls) / n_passes if n_passes else elapsed / seconds)
            ops = next(self.passes)
            if max_ops is not None:
                ops = ops[: max_ops - len(self.latencies)]
            t_pass = now()
            for op in ops:
                self._one(op, timed=True)
            pass_walls.append(now() - t_pass)
            self.pass_sizes.append(len(ops))
            elapsed = now() - t_start
            if elapsed > HARD_CAP_S:
                break
            if max_ops is not None:
                if len(self.latencies) >= max_ops:
                    break
            elif n_passes is not None:
                if len(pass_walls) >= n_passes:
                    break
            elif len(self.latencies) >= min_ops and elapsed + statistics.median(pass_walls) > seconds:
                break
        while len(self.setup.walls) < SETUP_STARTS:
            self.setup.start()

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def items(self) -> int:
        """The items items_per_s counts."""
        return len(self.latencies) if self.workload.item_is_op else sum(self.kind_items.values())

    @property
    def passes_done(self) -> float:
        full = max(self.pass_sizes)
        return sum(n / full for n in self.pass_sizes)


def tail_rank(n: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, math.ceil(pct * n / 100))


def op_list_digest(workload, seed: int, scale: str) -> str:
    passes = workload.passes(random.Random(seed), scale)
    h = hashlib.sha256()
    for _ in range(DIGEST_PASSES):
        for op in next(passes):
            h.update(("\0".join(op.argv) + "\n").encode())
    return h.hexdigest()[:16]


def provenance(agdim, args) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    src = hashlib.sha256()
    for path in sorted((SRC / "agdim").glob("*.py")):
        src.update(path.read_bytes())
    import numpy

    return {
        "git_sha": sha,
        "source_digest": src.hexdigest()[:16],
        "backend": agdim.kernels.BACKEND,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "op_list_digest": op_list_digest(WORKLOADS[args.workload], args.seed, args.scale),
    }


def untraced_twin(args, n_ops: int) -> dict:
    """Run the same first n_ops ops untraced in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale, "--ops", str(n_ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced twin run failed: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many timed ops instead of --seconds")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        agdim = import_agdim()
    except (Usage, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    loop = Loop(agdim, workload, args.seed, args.scale)
    loop.warmup()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # The traced run reports no tail percentile, so it needs no minimum op count.
    loop.run(args.seconds / 2 if args.trace else args.seconds, args.ops, 0 if args.trace else workload.min_ops)

    attempted, failed = loop.attempted, len(loop.failures)
    n = len(loop.latencies)
    if tracer is not None:
        twin = untraced_twin(args, len(loop.latencies))
        attempted += twin["result"]["attempted"]
        failed += twin["result"]["failed"]
        values = tracer.layer_metrics()
        values["trace.overhead_ratio"] = loop.busy_s / twin["info"]["counts"]["busy_s"]
        values["setup.numpy_import_s"] = statistics.median(p["numpy_import_s"] for p in loop.setup.inner)
        values["setup.agdim_import_s"] = statistics.median(p["agdim_import_s"] for p in loop.setup.inner)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(loop.setup.walls),
            "items_per_s": loop.items / loop.busy_s,
            "op_p50_ms": 1e3 * statistics.median(loop.latencies),
            "op_tail_ms": 1e3 * sorted(loop.latencies)[tail_rank(n, workload.tail_pct) - 1],
            "cpu_s": loop.cpu / loop.passes_done,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    info = {
        "provenance": provenance(agdim, args),
        "counts": {
            "ops": n,
            "ops_by_kind": {k: len(v) for k, v in sorted(loop.kind_latencies.items())},
            "items": loop.items,
            "checked_by_kind": dict(sorted(loop.kind_items.items())),
            "passes": round(loop.passes_done, 3),
            "busy_s": loop.busy_s,
            "warmup_ops": loop.attempted - n,
        },
        "notes": {
            "p50_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(loop.kind_latencies.items())},
            "op_tail_ms": f"p{workload.tail_pct} of {n} ops ({n - tail_rank(n, workload.tail_pct)} beyond it)",
            "fail_ratio": len(loop.failures) / loop.attempted,
            "failures": loop.failures[:10],
        },
    }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
