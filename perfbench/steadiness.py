"""Steadiness report: run each workload under several seeds and compare the
quartile spread of every end-to-end metric with its bound.

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1]
        [--workloads scan query] [--seconds N] [--out report.json]
        [--against earlier.json]

For every workload and metric it prints the median, the spread (Q3 - Q1 of
the runs, as ``statistics.quantiles(values, n=4)`` gives them, over the
median) and the bound from BENCHMARK.json.  A metric, ``setup_s`` too, is
flagged when its spread exceeds its bound, and, with ``--against``, when its
median is worse than the earlier report's median by more than the bound.
Exit code 1 when anything is flagged or any run failed an op.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, new: float, old: float) -> float:
    """Share by which ``new`` is worse than ``old`` (negative when better)."""
    return (new - old) / old if metric["better"] == "lower" else (old - new) / old


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload, one seed each")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the report as JSON here")
    parser.add_argument("--against", type=Path, help="an earlier report to compare medians with")
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else {}

    report: dict = {}
    flagged = False
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        rows = {}
        print(f"\n{workload}: {args.runs} runs, fail_ratio {failed}/{attempted}")
        print(f"  {'metric':14s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
        flagged |= failed > 0 or not all(r["correct"] for r in results)
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            row = {"values": values, "median": statistics.median(values), "spread": spread(values), "bound": m["bound"]}
            flags = []
            if row["spread"] > m["bound"]:
                flags.append("SPREAD OVER BOUND")
            before = earlier.get(workload, {}).get("metrics", {}).get(m["name"])
            if before is not None:
                row["worse_than_earlier"] = worse_by(m, row["median"], before["median"])
                if row["worse_than_earlier"] > m["bound"]:
                    flags.append(f"MEDIAN WORSE BY {row['worse_than_earlier']:.1%}")
            flagged |= bool(flags)
            rows[m["name"]] = row
            print(
                f"  {m['name']:14s} {row['median']:14.4f} {row['spread']:8.1%} {m['bound']:6.0%}  "
                + " ".join(flags)
            )
        report[workload] = {"attempted": attempted, "failed": failed, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
