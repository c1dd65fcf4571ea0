"""Measure every workload several times and record the results as a baseline.

Run from the root of a git checkout:

    python3 perfbench/record_baseline.py --out perfbench/baseline.json

For each workload it makes RUNS (10) untraced runs, each with its own seed, and
one traced run, one after another.  It records each end-to-end metric's values,
median and spread (the distance between the first and third quartiles as a
share of the median), and the traced per-layer numbers, together with the
commit, the Python version and the processor count.  It prints every metric
by name with its unit, each end-to-end spread beside a third of the metric's
bound from BENCHMARK.json, and the fail rate beside the items attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs were not correct")
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def git_sha() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "perfbench" / "baseline.json")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, RUNS + 1))
    record = {
        "commit": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        runs = [run_once(name, seed, bench["run_seconds"], 0) for seed in seeds]
        end_to_end = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            end_to_end[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
            print(f"{name:14s} {metric:13s} median {statistics.median(values):.5g} "
                  f"{end_to_end[metric]['unit']}, spread {spread(values):.4f} "
                  f"(a third of the bound: {bound / 3:.4f})", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{name:14s} fail_rate     {failed / attempted:.4g} ({failed} of {attempted} items)")
        traced = run_once(name, seeds[0], bench["run_seconds"], 1)
        for metric, m in traced["metrics"].items():
            print(f"{name:14s} {metric:30s} {m['value']:.6g} {m['unit']}")
        record["workloads"][name] = {
            "why": w["why"],
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
