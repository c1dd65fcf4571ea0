r"""Compare two checkouts on benchmark workloads, in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \
        [--workload W2 ...] --pairs N --seconds S [--seed K]

`--workload all` stands for every workload of the change checkout's
BENCHMARK.json.  The workloads run one after the other, each with its own
pairs and its own block of output.  Pair k runs `perfbench/run.py --trace 0
--seed K+k` once in each checkout, each from its own root; even pairs run
the parent first and odd pairs the change first, so a drift in machine
speed does not favour one side.  For each workload and end-to-end metric
the script prints both sides' median and quartiles, the change of the
medians, the number of pairs the change won and, apart, the number tied,
and whether the gap between the medians exceeds the parent's interquartile
range.  Each line ends in the metric's verdict: `gain` when the change wins
at least nine pairs in ten, ties counting for neither side, and the gap
exceeds that range; `regression` when the parent wins as often and the gap
exceeds that range; else `no change`.  The direction of each metric comes
from the change checkout's BENCHMARK.json (lower is better when it does not
say).  A run that prints no result stops the script with its standard
error.  Runs shorter than 10 s get a warning on standard error: 5 s runs
could not resolve a few percent on probe_bundled.

First the script prints each checkout's `src/weyltype` code lines, counted
as `grep -v '^\s*$' src/weyltype/*.py | grep -v ':\s*#' | wc -l` counts
them: set-up time is mostly compiling that source, so it follows its size.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

MIN_SECONDS = 10  # shorter runs get a warning
# What `grep -v ':\s*#'` drops from grep's "path:line" output: comment
# lines, and also code lines holding a colon then a comment.
_COMMENT = re.compile(r":\s*#")


def parse_result(stdout: str) -> dict:
    """The JSON result object that run.py prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(wins: int, losses: int, pairs: int, gap: float, spread: float) -> str:
    """`gain`, `regression` or `no change`, by the claim rule and its mirror."""
    if gap > spread:
        if 10 * wins >= 9 * pairs:
            return "gain"
        if 10 * losses >= 9 * pairs:
            return "regression"
    return "no change"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """Report lines for (parent result, change result) pairs of one workload."""
    lines = []
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
        ties = sum(1 for p, c in zip(parent, change) if c == p)
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        delta = f"{100 * (cmed - pmed) / pmed:+.1f}%" if pmed else "n/a"
        gap, spread = abs(cmed - pmed), pq3 - pq1
        lines.append(
            f"{name}: parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
            f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  {delta}  "
            f"change better in {wins}/{len(pairs)}, tied in {ties}  "
            f"median gap {gap:.6g} {'exceeds' if gap > spread else 'within'} "
            f"parent IQR {spread:.6g}  {verdict(wins, losses, len(pairs), gap, spread)}"
        )
    for side, k in (("parent", 0), ("change", 1)):
        failed = sum(pair[k]["failed"] for pair in pairs)
        attempted = sum(pair[k]["attempted"] for pair in pairs)
        lines.append(f"{side} failed {failed} of {attempted} items")
    return lines


def code_lines(root: Path) -> int:
    """The non-blank, non-comment lines of root's src/weyltype/*.py (0 when
    there are none), as the grep pipeline in the module docstring counts them."""
    return sum(
        1
        for path in sorted((root / "src" / "weyltype").glob("*.py"))
        for line in path.read_text().split("\n")
        if line.strip() and not _COMMENT.search(":" + line)
    )


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError as exc:
        raise SystemExit(f"{root}: no result ({exc}): {proc.stderr.strip()}") from exc


def benchmark_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def directions(spec: dict) -> dict[str, str]:
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", [])}


def workload_names(requested: list[str], spec: dict) -> list[str]:
    """The requested workloads in order, once each, with `all` standing for
    every workload of the BENCHMARK.json spec."""
    every = [w["name"] for w in spec.get("workloads", [])]
    names: list[str] = []
    for name in requested:
        if name == "all" and not every:
            raise SystemExit("--workload all needs the workloads of a BENCHMARK.json")
        for n in every if name == "all" else [name]:
            if n not in names:
                names.append(n)
    return names


def compare(parent: Path, change: Path, workload: str, pairs: int, seconds: float, seed: int) -> list:
    """(parent result, change result) for each pair, printing one line a pair."""
    out, roots = [], {"parent": parent, "change": change}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        result = {side: run_once(roots[side], workload, seed + k, seconds) for side in order}
        out.append((result["parent"], result["change"]))
        print(f"{workload} pair {k + 1}/{pairs} (seed {seed + k}, {order[0]} first): "
              f"wall_s {result['parent']['metrics']['wall_s']['value']:.6g} -> "
              f"{result['change']['metrics']['wall_s']['value']:.6g}", flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload, or all; repeat for several")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.seconds < MIN_SECONDS:
        print(f"warning: runs of {args.seconds:g} s are shorter than {MIN_SECONDS} s and may not "
              "resolve a few percent", file=sys.stderr)
    spec = benchmark_spec(args.change)
    for side in ("parent", "change"):
        print(f"{side} src/weyltype code lines: {code_lines(getattr(args, side))}")
    for workload in workload_names(args.workload, spec):
        pairs = compare(args.parent, args.change, workload, args.pairs, args.seconds, args.seed)
        print(f"{workload}, {args.pairs} pairs, {args.seconds:g} s a run:")
        for line in summarize(pairs, directions(spec)):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
