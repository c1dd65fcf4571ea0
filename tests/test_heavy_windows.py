"""The widened windows of scripts/heavy_windows.py load, validate and give
their pinned reports, about a second for all of them; the assoc_closure probes
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


def test_main_prints_the_median_of_the_warm_builds(monkeypatch, capsys):
    # Each window is built and checked once, then built WARM_BUILDS more
    # times; the printed seconds are the median of those, not the first.
    builds = []

    def fake_run_window(name):
        builds.append(name)
        k = builds.count(name)
        pinned = heavy_windows.WINDOWS[name][-1]
        report = {"probes": [{"verdict": "proper"}], "all_expected": True}
        return (9.0 if k == 1 else float(k)), report, pinned

    monkeypatch.setattr(heavy_windows, "run_window", fake_run_window)
    assert heavy_windows.main() == 0
    assert builds == [name for name in heavy_windows.WINDOWS for _ in range(1 + heavy_windows.WARM_BUILDS)]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(heavy_windows.WINDOWS)
    # The warm builds take 2, 3, 4, 5 and 6 s; their median is 4.
    assert all(": 4.000 s (median of 5 warm builds)  proper  sha256 " in line for line in lines)


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
def test_assoc_closure_forms_only_products_that_fit(name, monkeypatch, skip_off):
    # The principal symbol decides every discard of these probes, so each
    # product they form fits the window; the graded skip forms fewer still.
    formed, unskipped = ASSOC_WORK[name]
    assert _assoc_work(_load(name), monkeypatch)[0] == formed
    skip_off()
    assert _assoc_work(_load(name), monkeypatch) == unskipped


ALL_WINDOWS = sorted(bundled_scenario_names()) + ["closure_wide", "action_wide"] + sorted(heavy_windows.WINDOWS)


def _report_chains_and_stats(name):
    verdicts = []
    report = report_bytes(build_report(_load(name), verdicts))
    chains = [[(s.op, s.generator, s.parent, str(s.element)) for s in v.steps] for v in verdicts]
    return report, chains, [v.stats for v in verdicts]


@pytest.mark.parametrize("name", ALL_WINDOWS)
def test_graded_skip_changes_no_report_and_no_step_chain(name, skip_off):
    # A skipped step could only have ended in zero, a discard or the span:
    # the walk that forms every step gives the same bytes and chains, tries
    # and accepts the same steps, and ends those it skips in the other ways.
    report, chains, stats = _report_chains_and_stats(name)
    skip_off()
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
    # compute_f1 builds the window's coefficient basis, and theta_kernel,
    # d_simplicity and the closure tables read it from f1.  The interior
    # window of lie_closure is another window.
    scenario = _load(name)
    built = []
    original = probes.Window.a_basis

    def counted(window, ctx):
        built.append(window)
        return original(window, ctx)

    monkeypatch.setattr(probes.Window, "a_basis", counted)
    build_report(scenario)
    assert built.count(scenario.window) == 1
    if name != "action_wide":
        assert "d_simplicity" in [r.kind for r in scenario.probes]


@pytest.mark.parametrize("name", ALL_WINDOWS)
def test_piece_ids_agree_with_the_degrees(name):
    scenario = _load(name)
    ctx = scenario.ctx
    tables = probes.closure_tables(ctx, scenario.window)
    degrees = list(tables.piece_ids)
    assert [degrees[p] for p in tables.piece_of] == [ctx.degree(alpha, m) for alpha, m in tables.labels]
    assert sorted(set(tables.piece_of)) == list(range(len(degrees))) == sorted(tables.piece_ids.values())
    assert tables.sizes == [tables.piece_of.count(p) for p in range(len(degrees))]
    # Each generator's shift is the piece of its own label.
    names = [format_weyl(probes.wbasis(ctx, alpha, probes._a_element(ctx, m))) for alpha, m in tables.labels]
    assert tables.shifts == [tables.piece_of[names.index(gname)] for gname, _, _ in tables.gens]


@pytest.mark.parametrize("name", ALL_WINDOWS)
def test_each_accepted_step_keeps_the_pieces_of_its_element(name, term_degrees):
    scenario = _load(name)
    verdicts = []
    build_report(scenario, verdicts)
    tables = probes.closure_tables(scenario.ctx, scenario.window)
    for request, verdict in zip(scenario.probes, verdicts):
        for step in verdict.steps:
            if request.kind == "d_simplicity":
                assert step.pieces == {0}  # its walk runs on one piece
            else:
                assert step.pieces == {tables.piece_ids[d] for d in term_degrees(step.element)}


# (window, probe index) -> (tried, accepted) of each d_simplicity walk, those
# of the walk that forms every step; the heavy windows hold none.
D_SIMPLICITY_STEPS = {
    ("char2_poly", 2): (7, 6),
    ("char2_poly", 3): (35, 4),
    ("group_algebra_z2", 1): (1, 1),
    ("laurent_euler", 1): (1, 1),
    ("mixed_flavors", 1): (36, 18),
    ("mixed_flavors", 2): (5, 5),
    ("nonsimple_euler", 1): (42, 5),
    ("weyl_polynomial", 1): (7, 6),
    ("closure_wide", 1): (13, 12),
}


def test_a_d_simplicity_walk_skips_no_step():
    found = {}
    for name in ALL_WINDOWS:
        scenario = _load(name)
        verdicts = []
        build_report(scenario, verdicts)
        for k, (request, verdict) in enumerate(zip(scenario.probes, verdicts)):
            if request.kind == "d_simplicity":
                assert verdict.stats.skipped == 0
                found[(name, k)] = (verdict.stats.tried, verdict.stats.accepted)
    assert found == D_SIMPLICITY_STEPS


@pytest.mark.parametrize("name", ALL_WINDOWS)
def test_a_walk_computes_no_degree(name, monkeypatch):
    # closure_tables finds each label's degree once; the walks read pieces
    # from the tables only.
    scenario = _load(name)
    calls = [0]
    original = probes.Context.degree

    def counted(ctx, alpha, m):
        calls[0] += 1
        return original(ctx, alpha, m)

    monkeypatch.setattr(probes.Context, "degree", counted)
    f1 = probes.compute_f1(scenario.ctx, scenario.window)
    tables = probes.closure_tables(scenario.ctx, scenario.window, f1.labels)
    assert calls[0] == len(tables.labels)
    calls[0] = 0
    for request in scenario.probes:
        if request.kind in ("assoc_closure", "lie_closure"):
            reports.run_probe(scenario, request, f1, tables)
    assert calls[0] == 0


def test_a_report_shares_its_plans_across_its_walks(monkeypatch):
    # closure_wide's four operator closure walks run on one set of tables;
    # each piece set a parent lies in gets its plan built once for the whole
    # report.  Its d_simplicity walk runs on one-piece tables of its own.
    scenario = _load("closure_wide")
    built, walks = [], []
    original_plan, original_closure = probes._plan, probes._closure

    def counted_plan(tables, pieces):
        built.append((id(tables), pieces))
        return original_plan(tables, pieces)

    def recorded_closure(ctx, seed, tables, coords, form, width, **kwargs):
        # form(e) is called once for each parent the walk expands.
        parents = []

        def recorded_form(e):
            parents.append(e)
            return form(e)

        red, steps, stats = original_closure(ctx, seed, tables, coords, recorded_form, width, **kwargs)
        pieces = {id(step.element): step.pieces for step in steps}
        pieces[id(seed)] = frozenset(tables.piece_of[j] for j in coords(seed, tables.index))
        walks.append((tables, coords is probes.weyl_coords, {pieces[id(e)] for e in parents}))
        return red, steps, stats

    monkeypatch.setattr(probes, "_plan", counted_plan)
    monkeypatch.setattr(probes, "_closure", recorded_closure)
    build_report(scenario)
    operator = [(tables, used) for tables, weyl, used in walks if weyl]
    assert len(operator) == 4 and len({id(tables) for tables, _ in operator}) == 1
    simple = [(tables, used) for tables, weyl, used in walks if not weyl]
    assert len(simple) == [r.kind for r in scenario.probes].count("d_simplicity") > 0
    assert all(used == {frozenset((0,))} for _, used in simple)
    assert len(built) == len(set(built))
    assert set(built) == {(id(tables), p) for tables, used in operator + simple for p in used}
    shared = set().union(*(used for _, used in operator))
    assert sum(len(used) for _, used in operator) > len(shared)  # some walks met the same pieces


# The windows whose derivations shift exponents by more than one vector, or
# by a shift rule: K != 0, so their grading is coarser than the exponents.
COARSE_WINDOWS = ("action_wide", "mixed_flavors", "mixed_x2_d3", "shift_family")


def _exponent_shifts(ctx):
    """Per derivation d_j its one exponent shift delta_j, one entry per
    variable, or None when some image term shifts by another one."""
    n = len(ctx.variables)
    shifts = []
    for d in ctx.derivations:
        found = set()
        if d.shift_prefix is not None:
            return None
        for i, image in d.images.items():
            for m in image:
                delta = [0] * n
                for k, e in m.exps:
                    delta[k] = e
                delta[i] -= 1
                found.add(tuple(delta))
        if len(found) > 1:
            return None
        shifts.append(found.pop() if found else (0,) * n)
    return shifts


@pytest.mark.parametrize("name", [name for name in ALL_WINDOWS if name not in COARSE_WINDOWS])
def test_where_k_is_zero_the_degree_is_the_exponent_shift_formula(name):
    # Exact as before: m*d^alpha has degree m + sum_j alpha_j*delta_j.
    scenario = _load(name)
    ctx = scenario.ctx
    shifts = _exponent_shifts(ctx)
    assert shifts is not None
    for alpha, m in scenario.window.ad_basis(ctx):
        deg = [0] * len(ctx.variables)
        for i, e in m.exps:
            deg[i] = e
        for j, a in alpha.entries:
            for i, s in enumerate(shifts[j]):
                deg[i] += a * s
        assert ctx.degree(alpha, m) == tuple(deg)


@pytest.mark.parametrize("name", COARSE_WINDOWS)
def test_a_coarse_window_has_no_single_exponent_shift(name):
    assert _exponent_shifts(_load(name).ctx) is None
