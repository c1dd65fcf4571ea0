"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run.fresh_import()


def fail_rate(workload) -> float:
    m = run.measure(lambda k: workload, 0)
    return len(m.failures) / m.attempted


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_gate(name):
    assert fail_rate(workloads.build(name, 7, ROOT, size="tiny")) == 0


@pytest.fixture
def corrupted(tmp_path, monkeypatch):
    """A checkout whose recorded outputs are all deliberately wrong."""
    root = tmp_path / "checkout"
    sdir = workloads.scenario_dir(root)
    shutil.copytree(workloads.scenario_dir(ROOT), sdir)
    for golden in (sdir / "expected").glob("*.report.json"):
        golden.write_bytes(golden.read_bytes() + b" ")
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE / "expected", bench / "expected")
    forms_path = bench / "expected" / "normalize.json"
    forms = json.loads(forms_path.read_text())
    for by_expr in forms.values():
        for expr in by_expr:
            by_expr[expr] += " + 1"
    forms_path.write_text(json.dumps(forms))
    monkeypatch.setattr(workloads, "HERE", bench)
    return root


@pytest.mark.parametrize("name", ["probe_bundled", "closure_wide", "action_wide"])
def test_corrupted_golden_report_raises_fail_rate(corrupted, name):
    assert fail_rate(workloads.build(name, 7, corrupted, size="tiny")) == 1


def test_corrupted_normal_forms_raise_fail_rate(corrupted):
    workload = workloads.build("algebra_ops", 7, corrupted, size="tiny")
    normalize_items = sum(1 for item in workload.items if item.argv[0] == "normalize")
    assert fail_rate(workload) == normalize_items / len(workload.items)


def test_probe_digest_gate():
    out = (workloads.scenario_dir(ROOT) / "expected" / "weyl_polynomial.report.json").read_bytes()
    verdicts = [p["verdict"] for p in json.loads(out)["probes"]]
    digest = hashlib.sha256(out).hexdigest()
    assert workloads._probe_digest_check(verdicts, digest)(0, out)
    assert not workloads._probe_digest_check(verdicts, "0" * 64)(0, out)
    assert not workloads._probe_digest_check(verdicts[:-1], digest)(0, out)
    assert not workloads._probe_digest_check(verdicts, digest)(1, out)


def test_failing_verify_suite_is_a_failure():
    item = workloads.build("algebra_ops", 7, ROOT, size="tiny").items[0]
    assert item.check(0, b"associativity: pass (3 trials)\n")
    assert not item.check(1, b"associativity: FAIL (3 trials)\n  x=...\n")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_and_steps_add_up(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    workload = workloads.build(name, 7, ROOT, size="tiny")
    metrics, attempted, failures, repeatable = run.traced(workload, 7)
    assert repeatable and not failures and attempted == 3 * len(workload.items)
    steps = {kind: metrics[f"probes.steps_{kind}"][0] for kind in tracer.STEP_KINDS}
    assert steps["tried"] == sum(v for k, v in steps.items() if k != "tried")
    if name == "closure_wide":
        assert steps["accepted"] > 0 and steps["discarded"] > 0
    assert (tmp_path / f"{name}.seed7.spans.tsv").is_file()
    # Removing the tracer leaves the package as it was.
    assert not hasattr(sys.modules["weyltype.cli"].main, "__wrapped__")
    assert not hasattr(sys.modules["weyltype.probes"].w_mul, "__wrapped__")


def test_speed_sampler_scales_by_samples_in_and_before_a_region():
    sampler = run.SpeedSampler()
    nominal = run.REFERENCE_NOMINAL_S
    # Every sample took twice the nominal time: the machine ran at half speed.
    sampler.starts = [0.0, 0.1, 1.0, 1.5]
    sampler.durations = [2 * nominal] * 4
    # The two samples inside the region are not part of its time.
    assert sampler.normalized(1.0, 2.0) == pytest.approx((1.0 - 4 * nominal) / 2)
    # A region with no sample in or just before it uses the last one.
    assert sampler.normalized(5.0, 5.1) == pytest.approx(0.1 / 2)


def test_speed_sampler_samples_while_running_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        time.sleep(4 * run.SAMPLE_INTERVAL_S)
    assert len(sampler.durations) > run.PRIMING_SAMPLES
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_wraps_every_entry_point():
    tr = tracer.Tracer()
    tr.install()
    try:
        for target in tracer.entry_points():
            _, fn = tracer.lookup(*target)
            assert hasattr(fn, "__wrapped__"), f"{target} was not wrapped"
    finally:
        tr.uninstall()
    for target in tracer.entry_points():
        assert not hasattr(tracer.lookup(*target)[1], "__wrapped__")


def test_missing_entry_point_fails_the_traced_run(monkeypatch, capsys):
    gone = ("weyltype.operators", "w_mul_renamed", "operators.w_mul")
    monkeypatch.setattr(tracer, "SPAN_FUNCTIONS", tracer.SPAN_FUNCTIONS + (gone,))
    tr = tracer.Tracer()
    with pytest.raises(tracer.MissingEntryPoint, match="w_mul_renamed"):
        tr.install()
    # Nothing stays wrapped after a failed install.
    assert not hasattr(sys.modules["weyltype.probes"].w_mul, "__wrapped__")
    build = workloads.build
    monkeypatch.setattr(workloads, "build", lambda name, seed, root: build(name, seed, root, "tiny"))
    rc = run.main(["--workload", "closure_wide", "--seed", "1", "--seconds", "1", "--trace", "1"])
    out, err = capsys.readouterr()
    assert rc == 2 and "w_mul_renamed" in err and '"correct"' not in out


def test_without_source_the_benchmark_fails_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
