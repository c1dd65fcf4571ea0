"""Layered benchmark for weyltype.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

    probe_bundled  `probe` on all bundled scenarios, gated by the golden reports
    closure_wide   `probe` on weyl_polynomial widened to t in [0,12], level 5
    action_wide    `probe` on shift_family widened to x1..x3 in [0,3], level 3
    algebra_ops    `verify` (20 trials, seeded from --seed and the pass number)
                   on mixed_flavors and char5_laurent_euler, plus `normalize`
                   on a fixed list

Load model: a closed loop with one client, in one process and one thread.
Every item is an in-process call of `weyltype.cli.main`, so every pass loads
its scenarios and builds fresh contexts, as a user's invocation does.

With `--trace 0` the run makes back-to-back passes for `--seconds` and prints
the end-to-end metrics:

    wall_s        median wall time of one pass
    setup_s       median time to import weyltype afresh and load and
                  validate the workload's scenario files
    peak_rss_mib  peak resident memory of the process

Items whose output differs from the recorded one count as failed; the run
prints `fail_rate` beside the number attempted.

Both times are normalized to a nominal machine speed, because the machines
this runs on are shared: their speed flips between regimes tens of percent
apart within seconds and drifts over minutes.  While it measures, the run
times a fixed stdlib-only reference loop every 50 ms in its one thread,
interrupting the workload (see SpeedSampler and reference_work; the loop's
4 MiB buffer counts in peak_rss_mib).  Each item and each set-up is
timed without those samples and scaled by REFERENCE_NOMINAL_S over the mean
sample time in and just before it; the medians of the scaled pass and set-up
times are reported, with the raw medians printed beside them.

With `--trace 1` the run makes one untraced pass and two traced passes and
prints the per-layer metrics of the first traced pass (see tracer.py).  The
two traced passes must repeat every call count and closure-step count
exactly, or the run fails.  Spans and a summary are written under
`.perfbench_out/` in the checkout.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when every
output was correct, 1 when one was not, and 2, with no result printed, when
the checkout holds no weyltype source or the tracer finds an entry point gone.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

import micro  # noqa: E402  (the script's own directory is on sys.path)
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUPS_PER_PASS = 3
# The speed sampler times reference_work() every SAMPLE_INTERVAL_S.  A timed
# region is scaled by the samples taken during it and in the SPEED_WINDOW_S
# before it, so a region shorter than an interval still has a few.
SAMPLE_INTERVAL_S = 0.05
SPEED_WINDOW_S = 0.25
PRIMING_SAMPLES = 5
# The nominal duration of one reference_work(): the speed a normalized time
# is scaled to.  Only the scale of the normalized times depends on it.
REFERENCE_NOMINAL_S = 0.001
REFERENCE_READS = 6000
REFERENCE_BUFFER = bytearray(range(256)) * (1 << 14)  # 4 MiB


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k: each pass of a run draws fresh `verify` inputs, so the
    run's median covers several draws, and one --seed gives one sequence."""
    return 1000 * seed + k


def reference_work() -> int:
    """Fixed work that no change to weyltype can speed up.

    Pseudo-random reads over a buffer larger than a core's own caches.  On a
    shared machine the workloads slow down when neighbours contend for the
    shared caches, not only for the cores; this loop's time followed the
    workloads' pass times more closely than a plain integer loop did.
    """
    buf, mask = REFERENCE_BUFFER, len(REFERENCE_BUFFER) - 1
    total = j = 0
    for _ in range(REFERENCE_READS):
        j = (j * 1103515245 + 12345) & mask
        total += buf[j]
    return total


class SpeedSampler:
    """Samples the machine's speed while the workload runs, in its thread.

    An interval timer raises SIGALRM every SAMPLE_INTERVAL_S; the handler
    runs between two bytecodes of the workload and times one
    reference_work().  The host's speed flips between regimes within
    seconds, so only samples taken during a region follow its speed; samples
    taken before it do not.  Used as a context manager.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        for _ in range(PRIMING_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds of the region [t0, t1], less the samples taken in it,
        scaled to the nominal speed by the samples in and just before it."""
        lo = bisect.bisect_left(self.starts, t0 - SPEED_WINDOW_S)
        mid = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        window = self.durations[max(0, min(lo, mid - 1)):hi]
        own = sum(self.durations[mid:hi])
        return (t1 - t0 - own) * REFERENCE_NOMINAL_S / statistics.fmean(window)


def fresh_import():
    """Import weyltype from scratch, dropping any module already loaded."""
    for name in [m for m in sys.modules if m == "weyltype" or m.startswith("weyltype.")]:
        del sys.modules[name]
    importlib.import_module("weyltype")
    return importlib.import_module("weyltype.cli")


def set_up(files: list[Path]) -> None:
    """Import weyltype afresh and load and validate `files`."""
    fresh_import()
    load = sys.modules["weyltype.scenario"].load_scenario
    for path in files:
        load(path)


def run_pass(cli, workload: workloads.Workload, sampler: SpeedSampler | None = None):
    """Run one pass over the items.

    Returns (seconds, normalized seconds, names of failed items); only a
    running `sampler` gives normalized seconds.
    """
    gc.collect()
    raw = normalized = 0.0
    failed = []
    for item in workload.items:
        t0 = time.perf_counter()
        rc, out = workloads.run_item(cli, item)
        t1 = time.perf_counter()
        raw += t1 - t0
        if sampler is not None:
            normalized += sampler.normalized(t0, t1)
        if not item.check(rc, out):
            failed.append(item.name)
    return raw, normalized, failed


@dataclass
class Measurement:
    passes: list[float] = field(default_factory=list)
    normalized_passes: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    normalized_setups: list[float] = field(default_factory=list)
    samples: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def measure(workload_for, seconds: float) -> Measurement:
    """Back-to-back passes until the next one would overrun `seconds`.

    Pass k runs `workload_for(k)`, after set-ups for it.
    """
    m = Measurement()
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            workload = workload_for(len(m.passes))
            for _ in range(SETUPS_PER_PASS):
                t0 = time.perf_counter()
                set_up(workload.scenario_files)
                t1 = time.perf_counter()
                m.setups.append(t1 - t0)
                m.normalized_setups.append(sampler.normalized(t0, t1))
            raw, normalized, failed = run_pass(sys.modules["weyltype.cli"], workload, sampler)
            m.passes.append(raw)
            m.normalized_passes.append(normalized)
            m.attempted += len(workload.items)
            m.failures += failed
            used = time.perf_counter() - start
            if len(m.passes) >= MIN_PASSES and used + statistics.median(m.passes) > seconds:
                m.samples = len(sampler.durations)
                return m


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def end_to_end(name: str, workload_for, seconds: float) -> tuple[dict, int, list[str]]:
    m = measure(workload_for, seconds)
    wall, setup = statistics.median(m.passes), statistics.median(m.setups)
    print(
        f"{name}: {len(m.passes)} passes, raw median pass {wall:.4f} s (min "
        f"{min(m.passes):.4f}, max {max(m.passes):.4f}); raw median set-up "
        f"{setup:.4f} s over {len(m.setups)}; {m.samples} speed samples"
    )
    metrics = {
        "wall_s": (statistics.median(m.normalized_passes), "s"),
        "setup_s": (statistics.median(m.normalized_setups), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return metrics, m.attempted, m.failures


def layer_metrics(tr: tracer.Tracer, untraced_s: float, traced_s: float) -> dict:
    table, layers, counts = tr.span_table(), tr.layer_ns(), tr.exact_counts()
    steps = tr.closure_steps()

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def secs(name, key="ns"):
        return table.get(name, {}).get(key, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def count(name):
        return counts.get(f"count.{name}", 0)

    add_calls = calls("linalg.add")
    add_accepted = sum(
        1 for n, f in zip(tr.names, tr.flags) if n == "linalg.add" and f is not None and f[1]
    )
    probe_self = sum(row["self_ns"] for n, row in table.items() if n.startswith("probes.")) / 1e9
    m = {
        "fields.ops": (count("fields.ops"), "count"),
        "multiindex.lower_set_calls": (calls("multiindex.lower_set"), "count"),
        "multiindex.binom_calls": (calls("multiindex.binom"), "count"),
        "multiindex.s": (layers.get("multiindex", 0) / 1e9, "s"),
        "coefficients.mul_calls": (count("coefficients.mul"), "count"),
        "coefficients.derive_calls": (calls("coefficients.derive"), "count"),
        "coefficients.derive_s": (secs("coefficients.derive"), "s"),
        "coefficients.dcache_lookups": (count("coefficients.dcache_lookups"), "count"),
        "coefficients.dcache_hit_ratio": (
            ratio(count("coefficients.dcache_hits"), count("coefficients.dcache_lookups")),
            "ratio",
        ),
        "operators.w_mul_calls": (calls("operators.w_mul"), "count"),
        "operators.w_mul_s": (secs("operators.w_mul"), "s"),
        "operators.w_mul_self_s": (secs("operators.w_mul", "self_ns"), "s"),
        "operators.bracket_calls": (calls("operators.bracket"), "count"),
        "operators.act_calls": (calls("operators.act"), "count"),
        "operators.act_s": (secs("operators.act"), "s"),
        "operators.apply_multi_calls": (count("operators.apply_multi"), "count"),
        "linalg.add_calls": (add_calls, "count"),
        "linalg.add_accepted": (add_accepted, "count"),
        "linalg.accept_ratio": (ratio(add_accepted, add_calls), "ratio"),
        "linalg.s": (layers.get("linalg", 0) / 1e9, "s"),
        "linalg.nullspace_s": (secs("linalg.nullspace"), "s"),
        "probes.compute_f1_s": (secs("probes.compute_f1"), "s"),
        "probes.theta_kernel_s": (secs("probes.theta_kernel"), "s"),
        "probes.d_simplicity_s": (secs("probes.d_simplicity"), "s"),
        "probes.assoc_closure_s": (secs("probes.assoc_closure"), "s"),
        "probes.lie_closure_s": (secs("probes.lie_closure"), "s"),
        "probes.self_s": (probe_self, "s"),
    }
    for kind in tracer.STEP_KINDS:
        m[f"probes.steps_{kind}"] = (steps[kind], "count")
    m["probes.discard_ratio"] = (ratio(steps["discarded"], steps["tried"]), "ratio")
    m["probes.accept_ratio"] = (ratio(steps["accepted"], steps["tried"]), "ratio")
    m.update({
        "parser.evaluate_calls": (calls("parser.evaluate"), "count"),
        "parser.evaluate_s": (secs("parser.evaluate"), "s"),
        "scenario.load_s": (secs("scenario.load"), "s"),
        "reports.build_s": (secs("reports.build"), "s"),
        "reports.format_s": (secs("reports.format"), "s"),
        "cli.self_s": (secs("cli.main", "self_ns"), "s"),
        "checks.trials": (count("checks.trials"), "count"),
        "checks.self_s": (secs("checks.run", "self_ns"), "s"),
        "trace.spans": (len(tr.names), "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    return m


def traced(workload, seed: int) -> tuple[dict, int, list[str], bool]:
    cli = sys.modules["weyltype.cli"]
    untraced_s, _, failures = run_pass(cli, workload)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced_s, _, failed_a = run_pass(cli, workload)
        metrics = layer_metrics(tr, untraced_s, traced_s)
        counts_a = tr.exact_counts()
        OUT_DIR.mkdir(exist_ok=True)
        tr.write_spans(OUT_DIR / f"{workload.name}.seed{seed}.spans.tsv")
        tr.reset()
        _, _, failed_b = run_pass(cli, workload)
        counts_b = tr.exact_counts()
    finally:
        tr.uninstall()
    repeatable = counts_a == counts_b
    if not repeatable:
        for key in sorted(set(counts_a) | set(counts_b)):
            if counts_a.get(key) != counts_b.get(key):
                print(f"count differs between traced passes: {key} "
                      f"{counts_a.get(key)} != {counts_b.get(key)}", file=sys.stderr)
    fields = sys.modules["weyltype.fields"]
    for name, value in micro.field_timings(fields).items():
        metrics[name] = (value, "ns")
    metrics["linalg.micro_add_us"] = (
        micro.rref_add_us(fields, sys.modules["weyltype.linalg"], seed), "us")
    summary = {
        "workload": workload.name,
        "seed": seed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "exact_counts": counts_a,
        "repeatable": repeatable,
    }
    (OUT_DIR / f"{workload.name}.seed{seed}.trace.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return metrics, 3 * len(workload.items), failures + failed_a + failed_b, repeatable


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark for weyltype.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "weyltype" / "__init__.py").is_file():
        print(f"error: no weyltype source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    def workload_for(k: int) -> workloads.Workload:
        return workloads.build(args.workload, pass_seed(args.seed, k), ROOT)

    workload = workload_for(0)
    cli = fresh_import()
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: weyltype was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        try:
            metrics, attempted, failures, repeatable = traced(workload, args.seed)
        except tracer.MissingEntryPoint as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        metrics, attempted, failures = end_to_end(workload.name, workload_for, args.seconds)
        repeatable = True
    for name in sorted(set(failures)):
        print(f"FAILED: {workload.name}: {name} output differs from the recorded one",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} fail_rate = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} items failed)")
    correct = not failures and repeatable
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
