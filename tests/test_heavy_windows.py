"""The widened windows of scripts/heavy_windows.py load, validate and give
their pinned reports, about a second for all six; the assoc_closure probes
also bound the work of the principal-symbol test and of the graded skip,
and on these windows, the bundled scenarios and the benchmark's scenarios
the graded skip of both closure walks changes no report and no step
chain."""

import importlib.util
from pathlib import Path

import pytest

from weyltype import probes, reports
from weyltype.operators import format_weyl
from weyltype.reports import build_report, report_bytes
from weyltype.scenario import bundled_scenario_names, load_bundled, load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "heavy_windows.py"
_spec = importlib.util.spec_from_file_location("heavy_windows", SCRIPT)
heavy_windows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(heavy_windows)


@pytest.mark.parametrize("name", sorted(heavy_windows.WINDOWS))
def test_heavy_window_loads_and_validates(name):
    scenario = heavy_windows.load_window(name)
    _, overrides, (kind, seed, expect), _ = heavy_windows.WINDOWS[name]
    assert scenario.name == name
    request, = scenario.probes
    assert (request.kind, request.seed_text, request.expect) == (kind, seed, expect)
    bounds = {scenario.ctx.variables[i].name: [lo, hi] for i, lo, hi in scenario.window.bounds}
    assert bounds == overrides["window"]["bounds"]
    assert scenario.window.max_level == overrides["window"]["max_level"]
    assert len(scenario.window.ad_basis(scenario.ctx)) <= scenario.window.basis_cap


@pytest.mark.parametrize("name", sorted(heavy_windows.WINDOWS))
def test_heavy_window_report_matches_its_pinned_sha256(name):
    *_, pinned = heavy_windows.WINDOWS[name]
    _, report, digest = heavy_windows.run_window(name)
    assert report["all_expected"]
    assert digest == pinned


# Per scenario, over its assoc_closure probes: the products formed with the
# graded skip on, and the products formed and the steps discarded with it
# off.  Forming every product took 66,960 on kernel_wide.
ASSOC_WORK = {
    "char2_poly": (42, (42, 238)),
    "laurent_euler": (66, (68, 22)),
    "nonsimple_euler": (46, (372, 924)),
    "weyl_polynomial": (74, (106, 62)),
    "closure_wide": (198, (318, 98)),
    "assoc_exhaust": (222, (7_392, 19_040)),
    "kernel_wide": (14_348, (14_570, 52_390)),
}


def _load(name):
    if name in ("closure_wide", "action_wide"):
        return load_scenario(ROOT / "perfbench" / "scenarios" / f"{name}.json")
    if name in heavy_windows.WINDOWS:
        return heavy_windows.load_window(name)
    return load_bundled(name)


def _assoc_work(scenario, monkeypatch):
    index = {lab: j for j, lab in enumerate(scenario.window.ad_basis(scenario.ctx))}
    calls, outside = [0], [0]
    original = probes.w_mul

    def counted(x, y):
        z = original(x, y)
        calls[0] += 1
        outside[0] += probes.weyl_coords(z, index) is None
        return z

    monkeypatch.setattr(probes, "w_mul", counted)
    discarded = 0
    for request in scenario.probes:
        if request.kind == "assoc_closure":
            verdict = probes.assoc_ideal_closure_probe(scenario.ctx, request.seed, scenario.window)
            assert verdict.kind == request.expect
            discarded += verdict.stats.discarded
    assert outside[0] == 0
    return calls[0], discarded


@pytest.mark.parametrize("name", sorted(ASSOC_WORK))
def test_assoc_closure_forms_only_products_that_fit(name, monkeypatch):
    # The principal symbol decides every discard of these probes, so each
    # product they form fits the window; the graded skip forms fewer still.
    formed, unskipped = ASSOC_WORK[name]
    assert _assoc_work(_load(name), monkeypatch)[0] == formed
    monkeypatch.setattr(probes.Window, "pieces", lambda self, ctx, labels=None: None)
    assert _assoc_work(_load(name), monkeypatch) == unskipped


ALL_WINDOWS = sorted(bundled_scenario_names()) + ["closure_wide", "action_wide"] + sorted(heavy_windows.WINDOWS)


def _report_chains_and_stats(name):
    verdicts = []
    report = report_bytes(build_report(_load(name), verdicts))
    chains = [[(s.op, s.generator, s.parent, str(s.element)) for s in v.steps] for v in verdicts]
    return report, chains, [v.stats for v in verdicts]


@pytest.mark.parametrize("name", ALL_WINDOWS)
def test_graded_skip_changes_no_report_and_no_step_chain(name, monkeypatch):
    # A skipped step could only have ended in zero, a discard or the span:
    # the walk that forms every step gives the same bytes and chains, tries
    # and accepts the same steps, and ends those it skips in the other ways.
    report, chains, stats = _report_chains_and_stats(name)
    monkeypatch.setattr(probes.Window, "pieces", lambda self, ctx, labels=None: None)
    unskipped_report, unskipped_chains, unskipped_stats = _report_chains_and_stats(name)
    assert (unskipped_report, unskipped_chains) == (report, chains)
    for on, off in zip(stats, unskipped_stats):
        if on is None:  # theta_kernel
            continue
        assert off.skipped == 0
        assert (on.tried, on.accepted, on.ranks, on.stop) == (off.tried, off.accepted, off.ranks, off.stop)
        assert on.zero + on.discarded + on.in_span + on.skipped == off.zero + off.discarded + off.in_span


@pytest.mark.parametrize("name", ALL_WINDOWS)
def test_generator_names_are_their_canonical_forms(name):
    scenario = _load(name)
    tables = probes.closure_tables(scenario.ctx, scenario.window)
    assert len(tables.gens) == len(tables.labels) - 1  # every label but the identity
    for gname, g, _ in tables.gens:
        assert gname == format_weyl(g)


def test_one_report_builds_the_closure_tables_once(monkeypatch):
    # closure_wide runs four closure probes on one window; each probe called
    # without the tables builds its own and gives the same verdict.
    scenario = _load("closure_wide")
    built = [0]
    original = probes.closure_tables

    def counted(ctx, window, mons=None):
        built[0] += 1
        return original(ctx, window, mons)

    monkeypatch.setattr(probes, "closure_tables", counted)
    monkeypatch.setattr(reports, "closure_tables", counted)
    verdicts = []
    build_report(scenario, verdicts)
    assert built[0] == 1
    kinds = ("assoc_closure", "lie_closure")
    closures = [(r, v) for r, v in zip(scenario.probes, verdicts) if r.kind in kinds]
    assert len(closures) == 4 and {r.kind for r, _ in closures} == set(kinds)

    def summary(v):
        chain = [(s.op, s.generator, s.parent, format_weyl(s.element)) for s in v.steps]
        witness = [format_weyl(w) for w in v.witness]
        return v.kind, v.coverage, witness, v.unreached, v.note, chain, vars(v.stats)

    f1 = probes.compute_f1(scenario.ctx, scenario.window)
    for request, verdict in closures:
        assert summary(reports.run_probe(scenario, request, f1)) == summary(verdict)
    assert built[0] == 1 + len(closures)


@pytest.mark.parametrize("name", ["action_wide", "closure_wide", "weyl_polynomial"])
def test_one_report_builds_the_window_basis_once(name, monkeypatch):
    # compute_f1 builds the window's coefficient basis, and theta_kernel and
    # the closure tables read it from f1; only d_simplicity builds its own.
    # The interior window of lie_closure is another window.
    scenario = _load(name)
    built = []
    original = probes.Window.a_basis

    def counted(window, ctx):
        built.append(window)
        return original(window, ctx)

    monkeypatch.setattr(probes.Window, "a_basis", counted)
    build_report(scenario)
    kinds = [r.kind for r in scenario.probes]
    assert built.count(scenario.window) == 1 + kinds.count("d_simplicity")
