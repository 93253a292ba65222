"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it runs the same seeded ops untraced and traced and
checks that: every metric BENCHMARK.json names is printed with its unit and
a finite number; no op failed; the two runs agree on every count (ops per
kind, items checked per kind, the op-list digest); and the traced layer counts match
the oracle's item counts where a layer does all of a kind's work.  It also
checks that the benchmark exits non-zero without printing a result in a
directory that holds only BENCHMARK.json and the benchmark.  Exit code 1 on
any failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OPS = 24
SEED = 7

# layer count -> the op kind whose oracle item count it must equal
LAYER_COUNTS = {
    "query": {"efficiency.multisets": "lemma-N", "satake.export.cases": "catalog"},
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--scale", "tiny", "--ops", str(OPS)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def check_metrics(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"failed ops: {result['failed']} of {result['attempted']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = {}
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(name, trace)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            problems += [f"{name} trace={trace}: {p}" for p in check_metrics(result, declared)]
            runs[trace] = (info, result)
        if len(runs) < 2:
            continue
        (info0, res0), (info1, res1) = runs[0], runs[1]
        if info0["counts"]["ops"] != OPS:
            problems.append(f"{name}: ran {info0['counts']['ops']} ops, asked for {OPS}")
        for key in ("ops", "ops_by_kind", "items", "checked_by_kind"):
            if info0["counts"][key] != info1["counts"][key]:
                problems.append(f"{name}: {key} differs untraced/traced: {info0['counts'][key]} vs {info1['counts'][key]}")
        if info0["provenance"]["op_list_digest"] != info1["provenance"]["op_list_digest"]:
            problems.append(f"{name}: op-list digests differ")
        if res1["attempted"] != 2 * res0["attempted"]:  # traced run + its untraced twin
            problems.append(f"{name}: traced attempted {res1['attempted']}, untraced {res0['attempted']}")
        for metric, kind in LAYER_COUNTS.get(name, {}).items():
            got = res1["metrics"][metric]["value"]
            want = info0["counts"]["checked_by_kind"][kind]
            if got != want:
                problems.append(f"{name}: {metric} = {got}, oracle counted {want} {kind} items")
        print(f"{name}: checked", file=sys.stderr)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(spec["workloads"][0]["name"], 0, cwd=Path(bare))
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without agdim sources the benchmark must exit non-zero and print no result")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
