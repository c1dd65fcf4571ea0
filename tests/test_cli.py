import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from weyltype import cli, coefficients, operators
from weyltype.checks import MAX_SAMPLE_BOUND, MAX_TRIALS, SampleBounds, max_trials
from weyltype.cli import main
from weyltype.errors import UsageError, ValidationError
from weyltype.parser import evaluate_text
from weyltype.probes import DEFAULT_MARGIN
from weyltype.scenario import (
    bundled_scenario_names,
    bundled_scenario_path,
    load_bundled,
    load_scenario_mapping,
    parse_margin,
)

ALL_SCENARIOS = bundled_scenario_names()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def s_weyl():
    return str(bundled_scenario_path("weyl_polynomial"))


def test_bundled_scenarios_exist():
    assert ALL_SCENARIOS == [
        "char2_poly",
        "char5_laurent_euler",
        "group_algebra_z2",
        "laurent_euler",
        "mixed_flavors",
        "nonsimple_euler",
        "shift_family",
        "weyl_polynomial",
    ]


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_bundled_scenarios_validate(name):
    scenario = load_bundled(name)
    assert scenario.probes
    assert scenario.window.max_level >= 0


def test_normalize(capsys, s_weyl):
    code, out, _ = run_cli(capsys, "normalize", "d1*t", "--scenario", s_weyl)
    assert code == 0
    assert out.strip() == "t*d1 + 1"


def test_normalize_laurent(capsys):
    s = str(bundled_scenario_path("laurent_euler"))
    code, out, _ = run_cli(capsys, "normalize", "t^-1*t", "--scenario", s)
    assert code == 0
    assert out.strip() == "1"


def test_normalize_error_exit(capsys, s_weyl):
    code, out, err = run_cli(capsys, "normalize", "d1*x", "--scenario", s_weyl)
    assert code == 2
    assert "x" in err


@pytest.mark.parametrize(
    "argv, computed",
    [
        (("verify", "--trials", "5", "--scenario", "mixed_flavors"), False),
        (("normalize", "(d2 + x2)^3*x3", "--scenario", "mixed_flavors"), False),
        (("probe", "--scenario", "shift_family"), False),  # theta_kernel only
        (("probe", "--scenario", "mixed_flavors"), False),  # theta_kernel and d_simplicity
        (("probe", "--scenario", "weyl_polynomial"), True),  # runs both operator closures
    ],
)
def test_only_an_operator_closure_computes_the_grading(capsys, monkeypatch, argv, computed):
    calls = []
    grading = coefficients.Context.grading.func
    monkeypatch.setattr(coefficients.Context, "grading", property(lambda ctx: calls.append(ctx) or grading(ctx)))
    *head, name = argv
    code, _, _ = run_cli(capsys, *head, str(bundled_scenario_path(name)))
    assert code == 0
    assert bool(calls) == computed


def test_act(capsys, s_weyl):
    code, out, _ = run_cli(capsys, "act", "d1^2", "t^3", "--scenario", s_weyl)
    assert code == 0
    assert out.strip() == "6*t"
    code, out, _ = run_cli(capsys, "act", "1", "t^2 + 3", "--scenario", s_weyl)
    assert code == 0
    assert out.strip() == "t^2 + 3"


def test_act_euler_eigenvalue(capsys, s_weyl):
    for m in (1, 2, 5):
        code, out, _ = run_cli(capsys, "act", "t*d1", f"t^{m}", "--scenario", s_weyl)
        assert code == 0
        assert out.strip() == (f"{m}*t^{m}" if m > 1 else "t")


def test_act_rejects_operator_element(capsys, s_weyl):
    code, _, err = run_cli(capsys, "act", "d1", "t + d1", "--scenario", s_weyl)
    assert code == 2
    assert "derivation" in err


def test_bracket(capsys, s_weyl):
    code, out, _ = run_cli(capsys, "bracket", "d1", "t", "--scenario", s_weyl)
    assert code == 0
    assert out.strip() == "1"


def test_json_output_mode(capsys, s_weyl):
    code, out, _ = run_cli(capsys, "normalize", "d1*t", "--scenario", s_weyl, "--json")
    assert code == 0
    assert json.loads(out) == {"normal_form": "t*d1 + 1"}


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_probe_matches_bundled_expected_report_bytes(capsys, name):
    path = str(bundled_scenario_path(name))
    code, out, _ = run_cli(capsys, "probe", "--scenario", path)
    assert code == 0, f"scenario {name} has an unexpected probe verdict"
    expected = bundled_scenario_path(name).parent / "expected" / f"{name}.report.json"
    assert out.encode("ascii") == expected.read_bytes()


def _golden_report(name: str) -> bytes:
    return (bundled_scenario_path(name).parent / "expected" / f"{name}.report.json").read_bytes()


def test_probe_writes_its_report_to_a_text_only_stdout():
    # A stdout without a .buffer (here a StringIO) gets the decoded report.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["probe", "--scenario", str(bundled_scenario_path("weyl_polynomial"))])
    assert code == 0
    assert out.getvalue().encode("ascii") == _golden_report("weyl_polynomial")


@pytest.mark.parametrize("name", ["weyl_polynomial", "char2_poly"])
def test_probe_stats_print_one_json_line_per_probe_to_stderr(capsys, skip_off, name):
    requests = load_bundled(name).probes
    for skip in (True, False):
        if not skip:  # the graded skip off: every step is formed
            skip_off()
        code, out, err = run_cli(capsys, "probe", "--stats", "--scenario", str(bundled_scenario_path(name)))
        assert code == 0
        assert out.encode("ascii") == _golden_report(name)
        entries = [json.loads(line) for line in err.splitlines()]
        assert [(e["scenario"], e["probe"], e["kind"]) for e in entries] == [
            (name, k, r.kind) for k, r in enumerate(requests)
        ]
        for entry, request in zip(entries, requests):
            assert entry.get("seed") == request.seed_text
            if request.kind == "theta_kernel":
                assert "tried" not in entry
                continue
            assert set(entry) == {
                "scenario", "probe", "kind", "seed",
                "tried", "zero", "discarded", "in_span", "accepted", "skipped", "ranks", "stop",
            }
            outcomes = ("zero", "discarded", "in_span", "accepted", "skipped")
            assert entry["tried"] == sum(entry[k] for k in outcomes)
            assert entry["stop"] in ("identity", "saturated", "exhausted")
            assert entry["ranks"][0] == 1 and entry["ranks"] == sorted(entry["ranks"])
        # Both operator closure walks skip steps on these graded windows; nothing else does.
        skipping = {e["kind"] for e in entries if e.get("skipped")}
        closures = {r.kind for r in requests} & {"assoc_closure", "lie_closure"}
        assert skipping == (closures if skip else set())


def _assert_matches_recorded_digest(capsys, name):
    root = Path(__file__).resolve().parent.parent / "perfbench"
    code, out, _ = run_cli(capsys, "probe", "--scenario", str(root / "scenarios" / f"{name}.json"))
    expected = json.loads((root / "expected" / f"{name}.json").read_text())
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == expected["report_sha256"]
    assert [p["verdict"] for p in json.loads(out)["probes"]] == expected["verdicts"]


def test_probe_widened_window_matches_recorded_digest(capsys):
    # The benchmark's widened weyl_polynomial window (t in [0, 12], level 5)
    # tries 1,072 closure brackets and forms 98 of them (6,006 before
    # closures stopped on a full span, 1,072 before the graded skip), most
    # of which cancel heavily; any change to a bracket's value moves this
    # report's digest.
    _assert_matches_recorded_digest(capsys, "closure_wide")


def test_probe_widened_action_window_matches_recorded_digest(capsys):
    # The benchmark's widened shift_family window (x1..x3 in [0, 3], level 3)
    # runs the lazy shift-family variables and the saturating nullspace; any
    # change to an action image or to the constraint rows moves this digest.
    _assert_matches_recorded_digest(capsys, "action_wide")


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_probe_byte_determinism(capsys, name):
    path = str(bundled_scenario_path(name))
    _, first, _ = run_cli(capsys, "probe", "--scenario", path)
    _, second, _ = run_cli(capsys, "probe", "--scenario", path)
    assert first == second


PROBE_ALL_SCRIPT = """
from weyltype import cli
from weyltype.scenario import bundled_scenario_names, bundled_scenario_path
for name in bundled_scenario_names():
    assert cli.main(["probe", "--scenario", str(bundled_scenario_path(name))]) == 0
"""


def test_probe_bytes_do_not_depend_on_the_hash_seed():
    # Keys hash by address and strings by the hash seed, so neither may
    # order anything a report prints.
    src = str(Path(cli.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "987654"):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE_ALL_SCRIPT],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count(b'"probes"') == len(ALL_SCENARIOS)
    assert outputs[0] == outputs[1]


def test_probe_text_mode(capsys, s_weyl):
    code, out, _ = run_cli(capsys, "probe", "--scenario", s_weyl, "--text")
    assert code == 0
    assert "lie_closure" in out and "full_span_mod_f1" in out


def test_probe_margin_override_changes_interior(capsys):
    # a wider interior (smaller margin) judges more boundary monomials, so the
    # reported coverage of the non-simple control drops
    path = str(bundled_scenario_path("nonsimple_euler"))
    coverages = {}
    for margin in ("0", "1/2"):
        _, out, _ = run_cli(capsys, "probe", "--scenario", path, "--margin", margin)
        report = json.loads(out)
        assert report["margin"] == (margin if "/" in margin else f"{margin}/1")
        lie = [p for p in report["probes"] if p["kind"] == "lie_closure"][0]
        coverages[margin] = lie["coverage"]
    assert coverages == {"0": "5/7", "1/2": "1/2"}

    code, _, err = run_cli(
        capsys, "probe", "--scenario", str(bundled_scenario_path("nonsimple_euler")), "--margin", "7/2"
    )
    assert code == 2


def test_verify_passes(capsys, s_weyl):
    code, out, _ = run_cli(capsys, "verify", "--scenario", s_weyl, "--trials", "25", "--seed", "42")
    assert code == 0
    assert out.count("pass") == 6


def _parse(parser, argv):
    """(namespace or exit code, stdout, stderr) of one parse_args call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# Per command, argvs that parse, then argvs that are usage errors: a missing
# --scenario, a non-integer --trials, an unknown flag, an extra positional,
# and --json where the command has none.
PARSER_ARGVS = {
    "normalize": (["d1*t", "--scenario", "s"], ["t", "--json", "--scenario", "s"]),
    "act": (["d1", "t", "--scenario", "s"], ["d1", "t", "--scenario", "s", "--json"]),
    "bracket": (["d1", "t", "--scenario", "s", "--json"], ["--scenario", "s", "d1", "t"]),
    "probe": (["--scenario", "s"], ["--scenario", "s", "--text", "--margin", "1/3", "--stats"]),
    "verify": (["--scenario", "s"], ["--trials", "7", "--seed", "-2", "--scenario", "s"]),
}
BAD_ARGVS = (
    [],
    ["--trials", "abc", "--scenario", "s"],
    ["--scenario", "s", "--bogus"],
    ["a", "b", "c", "--scenario", "s"],
    ["--scenario", "s", "--json"],
)


@pytest.mark.parametrize("command", list(PARSER_ARGVS))
def test_command_parser_parses_like_the_full_parser(command):
    single, full = cli._build_argparser(command), cli._build_argparser(None)
    assert single is not full
    help_text = _parse(single, [command, "--help"])
    assert help_text[0] == 0 and help_text[1].startswith(f"usage: weyltype {command} ")
    assert help_text == _parse(full, [command, "--help"])
    for argv in PARSER_ARGVS[command]:
        parsed = _parse(single, [command, *argv])
        assert isinstance(parsed[0], dict) and parsed[0]["command"] == command
        assert parsed == _parse(full, [command, *argv])
    for argv in BAD_ARGVS:
        refused = _parse(single, [command, *argv])
        assert refused[0] == 2 and refused[1] == "" and len(refused[2].splitlines()) == 1, argv
        assert refused == _parse(full, [command, *argv])


def test_unknown_command_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope", "--scenario", "s"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "invalid choice: 'nope'" in err
    assert all(f"'{name}'" in err for name in PARSER_ARGVS)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "{normalize,act,bracket,probe,verify}" in out


def test_a_command_builds_only_its_own_subparser(capsys, monkeypatch, s_weyl):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    cli._build_argparser.cache_clear()
    try:
        assert run_cli(capsys, "probe", "--text", "--scenario", s_weyl)[0] == 0
        assert run_cli(capsys, "probe", "--scenario", s_weyl)[0] == 0
    finally:
        cli._build_argparser.cache_clear()
    assert added == ["probe"]


def test_main_calls_share_no_parsed_state(capsys, monkeypatch, s_weyl):
    # main builds its argument parser once per process; a flag given to one
    # call must not carry over into the next.
    assert cli._build_argparser() is cli._build_argparser()
    code, _, err = run_cli(capsys, "probe", "--stats", "--scenario", s_weyl)
    assert code == 0 and len(err.splitlines()) == len(load_bundled("weyl_polynomial").probes)
    code, _, err = run_cli(capsys, "probe", "--scenario", s_weyl)
    assert code == 0 and err == ""
    seen = []
    monkeypatch.setattr(cli, "run_all_checks", lambda ctx, trials, seed, bounds: seen.append((trials, seed)) or [])
    assert run_cli(capsys, "verify", "--scenario", s_weyl, "--trials", "3", "--seed", "5")[0] == 0
    assert run_cli(capsys, "verify", "--scenario", s_weyl)[0] == 0
    assert seen == [(3, 5), (200, 0)]


def test_verify_mixed_scenario_200_trials(capsys):
    path = str(bundled_scenario_path("mixed_flavors"))
    code, out, _ = run_cli(capsys, "verify", "--scenario", path, "--trials", "200", "--seed", "42")
    assert code == 0
    assert out.count("pass") == 6


def test_capped_product_memo_changes_no_verify_output(capsys, monkeypatch):
    # verify runs every trial in one context; its product memo starts over at
    # the cap, which changes the work but no product.
    path = str(bundled_scenario_path("mixed_flavors"))
    loaded = []
    load = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda p: loaded.append(load(p)) or loaded[-1])

    def run():
        code, out, err = run_cli(capsys, "verify", "--scenario", path, "--trials", "50")
        return code, out, err, len(loaded[-1].ctx._products)

    code, out, err, uncapped = run()
    monkeypatch.setattr(coefficients, "PRODUCT_MEMO_CAP", 64)
    capped = run()
    assert capped[:3] == (code, out, err) and code == 0
    assert capped[3] <= 64 < uncapped


def _gamma_nodes(ctx):
    """Every built node of the context's gamma trees."""
    stack = list(ctx._gamma_trees.values())
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children or ())


def test_capped_gamma_trees_change_no_verify_output(capsys, monkeypatch):
    # The map of gamma trees and each node's output map start over at the
    # cap, like the product memo: the work changes, no verify byte does.
    path = str(bundled_scenario_path("mixed_flavors"))
    loaded = []
    load = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda p: loaded.append(load(p)) or loaded[-1])

    def run():
        out = run_cli(capsys, "verify", "--scenario", path, "--trials", "50", "--seed", "3")
        ctx = loaded[-1].ctx
        return out, len(ctx._gamma_trees), max(len(n.outputs) for n in _gamma_nodes(ctx))

    uncapped, trees, outputs = run()
    assert uncapped[0] == 0 and trees > 4 and outputs > 4
    cap = 4
    monkeypatch.setattr(coefficients, "PRODUCT_MEMO_CAP", cap)
    seen = []
    capped = operators.capped

    def watched(memo):
        # On every miss, the sizes of the tree map and of each built node's
        # output map, as they are before the miss stores its entry.
        ctx = loaded[-1].ctx
        seen.append(len(ctx._gamma_trees))
        seen.extend(len(node.outputs) for node in _gamma_nodes(ctx))
        return capped(memo)

    monkeypatch.setattr(operators, "capped", watched)
    capped_out, trees, outputs = run()
    assert capped_out == uncapped
    assert cap in seen and max(seen) <= cap and trees <= cap and outputs <= cap


def test_capped_memos_change_no_report(capsys, monkeypatch):
    # Both coefficient memos, the monomial products and the derivative cache,
    # start over at the cap; with a cap of 4 they start over all the time,
    # which changes the work but no report byte.
    loaded = []
    load = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda p: loaded.append(load(p)) or loaded[-1])
    monkeypatch.setattr(coefficients, "PRODUCT_MEMO_CAP", 4)
    for name in ALL_SCENARIOS:
        code, out, _ = run_cli(capsys, "probe", "--scenario", str(bundled_scenario_path(name)))
        assert code == 0 and out.encode("ascii") == _golden_report(name)
    _assert_matches_recorded_digest(capsys, "closure_wide")
    _assert_matches_recorded_digest(capsys, "action_wide")
    assert len(loaded) == len(ALL_SCENARIOS) + 2
    for scenario in loaded:
        assert len(scenario.ctx._dcache) <= 4 and len(scenario.ctx._products) <= 4


def test_verify_zero_trials_vacuous(capsys, s_weyl):
    code, out, _ = run_cli(capsys, "verify", "--scenario", s_weyl, "--trials", "0")
    assert code == 0


def test_verify_refuses_negative_trials(capsys, s_weyl):
    code, out, err = run_cli(capsys, "verify", "--scenario", s_weyl, "--trials", "-3")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: trials must be nonnegative, got -3"]


@pytest.mark.parametrize("trials", ["10001", "1000000000"])
def test_verify_caps_trials(capsys, trials):
    # mixed_flavors takes about 9 ms a trial, so a billion trials would run for months.
    path = str(bundled_scenario_path("mixed_flavors"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--scenario", path, "--trials", trials)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: trials must be at most {MAX_TRIALS}, got {trials}"]


def test_verify_caps_trials_by_the_sample_bounds(capsys, tmp_path):
    # With every sample bound at 6 one shift_family trial took up to 81 s, so
    # 10,000 trials are refused, in one line and before any trial runs.
    top = {key: MAX_SAMPLE_BOUND for key in ("max_degree", "max_level", "max_terms")}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_scenario_dict(sample=top)))
    cap = max_trials(SampleBounds(**top))
    assert cap == 4
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--scenario", str(path), "--trials", "10000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: trials must be at most {cap} at max_degree 6, max_level 6, max_terms 6, got 10000"
    ]


@pytest.mark.parametrize("argv", [
    ("normalize", "t", "--text"),
    ("act", "d1", "t", "--text"),
    ("bracket", "d1", "t", "--text"),
    ("probe", "--json"),
    ("verify", "--text"),
    ("verify", "--json"),
    ("verify", "--text", "--json"),
])
def test_output_flags_exist_only_where_they_act(capsys, s_weyl, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--scenario", s_weyl])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_missing_scenario_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "probe", "--scenario", "/nonexistent.json")
    assert code == 2
    assert "not found" in err


def _scenario_dict(**overrides):
    base = {
        "name": "inline",
        "field": {"kind": "rational"},
        "variables": [{"name": "t", "kind": "polynomial"}],
        "derivations": [{"name": "d1", "images": {"t": "1"}}],
        "window": {"max_level": 2, "bounds": {"t": [0, 4]}},
        "probes": [{"kind": "theta_kernel"}],
    }
    base.update(overrides)
    return base


def test_lie_closure_on_a_vacuous_interior_exits_2(capsys, tmp_path):
    # The interior of t in [0, 1] at level 1 is {1}, inside the kernel of t*d/dt.
    path = tmp_path / "vacuous.json"
    path.write_text(json.dumps(_scenario_dict(
        derivations=[{"name": "d1", "euler_weights": {"t": 1}}],
        window={"max_level": 1, "bounds": {"t": [0, 1]}},
        probes=[{"kind": "lie_closure", "seed": "t*d1"}],
    )))
    code, out, err = run_cli(capsys, "probe", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err == "error: interior sub-window holds no target outside the derivation kernel\n"


def test_loader_builds_the_sample_bounds_verify_runs():
    scenario = load_scenario_mapping(_scenario_dict(sample={"max_degree": 2, "max_terms": 5}))
    assert scenario.sample == SampleBounds(max_degree=2, max_level=3, max_terms=5, n_variables=1)
    for name in ALL_SCENARIOS:
        scenario = load_bundled(name)
        assert isinstance(scenario.sample, SampleBounds)
        assert scenario.sample.n_variables == scenario.initial_variable_count


@pytest.mark.parametrize(
    "key, value",
    [("max_terms", 10**9), ("max_terms", 0), ("max_degree", -1), ("max_level", MAX_SAMPLE_BOUND + 1)],
)
def test_sample_bounds_out_of_range_are_usage_errors(capsys, tmp_path, key, value):
    # Unchecked, 10**9 terms ran on for ever, and a bound below the range
    # failed inside the random draws with an empty randrange.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_scenario_dict(sample={key: value})))
    err = _assert_usage_error(capsys, bad, "verify", "--trials", "1")
    low = 1 if key == "max_terms" else 0
    assert f"sample {key} must be in [{low}, {MAX_SAMPLE_BOUND}], got {value}" in err


def test_sample_bounds_accept_the_ends_of_their_ranges():
    top = {key: MAX_SAMPLE_BOUND for key in ("max_degree", "max_level", "max_terms")}
    assert load_scenario_mapping(_scenario_dict(sample=top)).sample == SampleBounds(**top, n_variables=1)
    low = {"max_degree": 0, "max_level": 0, "max_terms": 1}
    assert load_scenario_mapping(_scenario_dict(sample=low)).sample == SampleBounds(**low, n_variables=1)


@pytest.mark.parametrize("cap", [-1, 10**12])
def test_basis_cap_out_of_range_is_a_usage_error(capsys, tmp_path, cap):
    # Unchecked, 10**12 let a window enumerate 10**8 monomials and die of a
    # MemoryError (exit 3); -1 failed only when a probe listed a basis.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_scenario_dict(basis_cap=cap, window={"max_level": 1, "bounds": {"t": [0, 10**8]}})))
    err = _assert_usage_error(capsys, bad, "probe")
    assert f"basis_cap must be in [1, 20000], got {cap}" in err


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_probe_requests_carry_their_evaluated_seeds(name):
    scenario = load_bundled(name)
    for request in scenario.probes:
        if request.kind == "theta_kernel":
            assert request.seed is None
        else:
            assert request.seed == evaluate_text(request.seed_text, scenario.ctx)


def test_noncommuting_derivations_fail_validation_before_probes():
    data = _scenario_dict(
        derivations=[
            {"name": "d1", "images": {"t": "1"}},
            {"name": "d2", "images": {"t": "t"}},
        ]
    )
    with pytest.raises(ValidationError, match="do not commute"):
        load_scenario_mapping(data)


def test_cli_verify_rejects_corrupted_scenario_before_trials(capsys, tmp_path):
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(_scenario_dict(
        derivations=[
            {"name": "d1", "images": {"t": "1"}},
            {"name": "d2", "images": {"t": "t"}},
        ]
    )))
    code, out, err = run_cli(capsys, "verify", "--scenario", str(bad), "--trials", "100")
    assert code == 2
    assert "do not commute" in err
    assert "pass" not in out  # no suite ran


def test_validation_collects_all_violations():
    data = _scenario_dict(
        window={"max_level": 2, "bounds": {}},
        probes=[
            {"kind": "mystery"},
            {"kind": ["theta_kernel"]},
            {"kind": "d_simplicity", "seed": "d1"},
            {"kind": "lie_closure"},
        ],
    )
    with pytest.raises(ValidationError) as err:
        load_scenario_mapping(data)
    text = str(err.value)
    assert "no bounds" in text
    assert "unknown kind 'mystery'" in text
    assert "unknown kind ['theta_kernel']" in text
    assert "coefficient-only" in text
    assert "requires a seed" in text


def test_group_algebra_weight_matrix_must_be_injective():
    data = _scenario_dict(
        group_algebra=True,
        variables=[
            {"name": "g1", "kind": "laurent"},
            {"name": "g2", "kind": "laurent"},
        ],
        derivations=[
            {"name": "d1", "euler_weights": {"g1": 1, "g2": 1}},
            {"name": "d2", "euler_weights": {"g1": 2, "g2": 2}},
        ],
        window={"max_level": 1, "bounds": {"g1": [-1, 1], "g2": [-1, 1]}},
    )
    with pytest.raises(ValidationError, match="nontrivial integer kernel"):
        load_scenario_mapping(data)


def test_group_algebra_requires_laurent_and_euler():
    data = _scenario_dict(group_algebra=True)
    with pytest.raises(ValidationError, match="laurent"):
        load_scenario_mapping(data)


def test_bad_margin_rejected():
    data = _scenario_dict(margin="3/2")
    with pytest.raises(ValidationError, match="margin"):
        load_scenario_mapping(data)


@pytest.mark.parametrize("margin", [0.1, False])
def test_margin_must_be_a_fraction_string(capsys, tmp_path, margin):
    # Fraction() would read the float 0.1 as 3602879701896397/36028797018963968
    # and false as 0/1.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_scenario_dict(margin=margin)))
    err = _assert_usage_error(capsys, bad, "probe")
    assert "margin must be a fraction string" in err


@pytest.mark.parametrize("margin", ["1/0", "1e-5", "half"])
def test_margin_override_is_validated_like_the_file(capsys, s_weyl, margin):
    # Fraction("1/0") raises ZeroDivisionError with the bare message
    # "Fraction(1, 0)", which names no option.
    err = _assert_usage_error(capsys, s_weyl, "probe", "--margin", margin)
    assert f"malformed margin {margin!r}" in err


def test_composite_field_rejected():
    data = _scenario_dict(field={"kind": "prime", "p": 6})
    with pytest.raises(ValidationError, match="prime"):
        load_scenario_mapping(data)


def _assert_usage_error(capsys, path, *argv):
    code, out, err = run_cli(capsys, *argv, "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_top_level_array_is_a_validation_error(capsys, tmp_path):
    bad = tmp_path / "array.json"
    bad.write_text(json.dumps([_scenario_dict()]))
    err = _assert_usage_error(capsys, bad, "probe")
    assert "must be a JSON object" in err


def test_non_object_derivation_entry_is_a_validation_error(capsys, tmp_path):
    bad = tmp_path / "derivation.json"
    bad.write_text(json.dumps(_scenario_dict(derivations=[5])))
    err = _assert_usage_error(capsys, bad, "probe")
    assert "derivation 0 must be an object" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"name": ["inline"]},
        {"variables": 5},
        {"variables": [5]},
        {"variables": [{"name": 5}]},
        {"variable_cap": [16]},
        {"derivations": {"d1": {"images": {"t": "1"}}}},
        {"derivations": [{"name": "d1", "images": ["1"]}]},
        {"derivations": [{"name": "d1", "images": {"t": 1}}]},
        {"derivations": [{"name": "d1", "euler_weights": 5}]},
        {"derivations": [{"name": "d1", "euler_weights": {"t": [1]}}]},
        {"derivations": [{"name": "d1", "shift_prefix": 5}]},
        {"window": {"max_level": 2, "bounds": [0, 4]}},
        {"window": {"max_level": 2, "bounds": {"t": [0]}}},
        {"window": {"max_level": [2], "bounds": {"t": [0, 4]}}},
        {"margin": [1, 2]},
        {"sample": 5},
        {"sample": {"max_degree": "many"}},
        {"probes": 5},
        {"probes": [5]},
        {"probes": [{"kind": "lie_closure", "seed": 5}]},
    ],
)
def test_malformed_schema_levels_are_validation_errors(capsys, tmp_path, overrides):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_scenario_dict(**overrides)))
    _assert_usage_error(capsys, bad, "probe")


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"window": {"max_level": 2.9, "bounds": {"t": [0, 4]}}}, "window max_level"),
        ({"window": {"max_level": [2], "bounds": {"t": [0, 4]}}}, "window max_level"),
        ({"window": {"max_level": 2, "bounds": {"t": [0, True]}}}, "upper bound for t"),
        ({"variable_cap": "3"}, "variable_cap"),
        ({"basis_cap": "5000"}, "basis_cap"),
        ({"field": {"kind": "prime", "p": 5.0}}, "field p"),
    ],
)
def test_integer_fields_accept_only_json_integers(capsys, tmp_path, overrides, field):
    # int() would truncate 2.9 to 2, read true as 1 and parse "3"; the loader
    # must reject them instead of probing a window nobody asked for.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_scenario_dict(**overrides)))
    err = _assert_usage_error(capsys, bad, "probe")
    assert f"{field} must be an integer" in err


@pytest.mark.parametrize("value", ["no", "false", 0, 1])
@pytest.mark.parametrize("field", ["restrict_to_f1", "group_algebra"])
def test_boolean_fields_accept_only_json_booleans(capsys, tmp_path, field, value):
    # bool() would read "no" and "false" as true and 0/1 as booleans.
    if field == "group_algebra":
        data = _scenario_dict(group_algebra=value)
        name = "group_algebra"
    else:
        data = _scenario_dict(probes=[{"kind": "theta_kernel", "restrict_to_f1": value}])
        name = "probe 0 restrict_to_f1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    err = _assert_usage_error(capsys, bad, "probe")
    assert f"{name} must be true or false, not {value!r}" in err


def test_boolean_fields_accept_json_false():
    data = _scenario_dict(
        group_algebra=False, probes=[{"kind": "theta_kernel", "restrict_to_f1": False}]
    )
    scenario = load_scenario_mapping(data)
    assert scenario.group_algebra is False
    assert scenario.probes[0].restrict_to_f1 is False


# Each probe kind with a verdict it can return and one it never returns.
VERDICT_CASES = [
    ({"kind": "theta_kernel"}, "kernel_zero", "reaches_identity"),
    ({"kind": "d_simplicity", "seed": "t"}, "reaches_identity", "kernel_zero"),
    ({"kind": "assoc_closure", "seed": "d1"}, "proper_invariant_subspace", "full_span_mod_f1"),
    ({"kind": "lie_closure", "seed": "t*d1"}, "full_span_mod_f1", "reaches_identity"),
]


@pytest.mark.parametrize("probe, possible, impossible", VERDICT_CASES)
def test_expect_must_be_a_verdict_of_the_probe_kind(capsys, tmp_path, probe, possible, impossible):
    scenario = load_scenario_mapping(_scenario_dict(probes=[{**probe, "expect": possible}]))
    assert scenario.probes[0].expect == possible
    for expect in (impossible, "banana", 3, ["kernel_zero"]):
        data = _scenario_dict(probes=[{**probe, "expect": expect}])
        with pytest.raises(ValidationError) as err:
            load_scenario_mapping(data)
        assert err.value.violations == [
            f"probe 0: {probe['kind']} never returns the expected verdict {expect!r}"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        err = _assert_usage_error(capsys, bad, "probe")
        assert f"never returns the expected verdict {expect!r}" in err


@pytest.mark.parametrize("value", [True, False, "yes"])
@pytest.mark.parametrize("probe", [case[0] for case in VERDICT_CASES[1:]])
def test_only_theta_kernel_takes_restrict_to_f1(capsys, tmp_path, probe, value):
    data = _scenario_dict(probes=[{**probe, "restrict_to_f1": value}])
    with pytest.raises(ValidationError) as err:
        load_scenario_mapping(data)
    assert err.value.violations == [f"probe 0: {probe['kind']} takes no restrict_to_f1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    err = _assert_usage_error(capsys, bad, "probe")
    assert "takes no restrict_to_f1" in err


@pytest.mark.parametrize(
    "exc", [RuntimeError("boom\nsecond line"), AssertionError("self-check failed")]
)
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, s_weyl, exc):
    def broken(args, scenario):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "normalize", broken)
    code, out, err = run_cli(capsys, "normalize", "t", "--scenario", s_weyl)
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert type(exc).__name__ in err and "Traceback" not in err


@pytest.mark.parametrize("expr", ["t^2000000", "d1^-2000000"])
def test_huge_exponent_is_rejected_at_once(capsys, s_weyl, expr):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", expr, "--scenario", s_weyl)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "exceeds the cap" in err and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("expr", ["(t+d1)^400", "(t+d1)^87*(t+d1)"])
def test_a_product_past_the_term_cap_is_refused_at_once(capsys, s_weyl, expr):
    # Uncapped, (t+d1)^200 alone took 1.7 s; (t+d1)^88 is the first power
    # past the cap, whether a power or the product fold forms it.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", expr, "--scenario", s_weyl)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: product has 2025 terms, above the cap 2000\n")


def test_a_product_of_large_factors_is_refused_before_it_is_formed(capsys, s_weyl):
    # Each factor has 961 terms, under the term cap, but the one product
    # walks 961*961 term pairs: formed, it ran 8.3 s before its result was
    # refused.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "normalize", "(t+d1)^60*(t+d1)^60", "--scenario", s_weyl)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: product of 961-term and 961-term factors, above the cap 100000 term pairs\n"


def test_deeply_nested_expression_is_a_parse_error(capsys, s_weyl):
    code, out, err = run_cli(capsys, "normalize", "(" * 2000 + "d1" + ")" * 2000, "--scenario", s_weyl)
    assert code == 2
    assert "nesting deeper than" in err and "Traceback" not in err


def _run_module(*argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "weyltype", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_large_prime_modulus_is_decided_quickly(tmp_path):
    good = tmp_path / "mersenne.json"
    good.write_text(json.dumps(_scenario_dict(field={"kind": "prime", "p": 2**61 - 1})))
    proc = _run_module("normalize", "d1*t", "--scenario", str(good))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "t*d1 + 1"

    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(_scenario_dict(field={"kind": "prime", "p": 10**30 + 57})))
    proc = _run_module("normalize", "d1", "--scenario", str(huge))
    assert proc.returncode == 2
    assert "too large" in proc.stderr and "Traceback" not in proc.stderr


def _assert_quick_usage_error(capsys, path, *argv):
    start = time.perf_counter()
    err = _assert_usage_error(capsys, path, *argv)
    assert time.perf_counter() - start < 1.0
    return err


@pytest.mark.parametrize("argv", [
    ["verify", "--json"],
    ["verify", "--trials", "abc"],
    [],
])
def test_argparse_usage_errors_print_one_line(capsys, s_weyl, argv):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--scenario", s_weyl])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_directory_as_scenario_is_a_usage_error(capsys, tmp_path):
    err = _assert_quick_usage_error(capsys, tmp_path, "probe")
    assert "cannot read scenario file" in err


def test_deeply_nested_scenario_file_is_a_usage_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    err = _assert_quick_usage_error(capsys, deep, "probe")
    assert "nests too deeply" in err


@pytest.mark.parametrize("p", [7, "x"])
def test_rational_field_takes_no_modulus(capsys, tmp_path, p):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_scenario_dict(field={"kind": "rational", "p": p})))
    err = _assert_usage_error(capsys, bad, "probe")
    assert "field" in err


def test_window_level_is_checked_before_enumerating(capsys, tmp_path):
    # mixed_flavors has three derivations: C(403, 3) = 10,827,401 multi-indices.
    data = json.loads(bundled_scenario_path("mixed_flavors").read_text())
    data["window"]["max_level"] = 400
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(data))
    err = _assert_quick_usage_error(capsys, wide, "probe")
    assert "10827401 derivation multi-indices" in err


def test_verify_runs_on_a_scenario_without_variables(capsys, tmp_path):
    # The random monomials drew a variable from range(0), and n_variables = 0
    # read as unset: both ended in "empty range for randrange()".
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_scenario_dict(
        variables=[], derivations=[{"name": "d1", "images": {}}],
        window={"max_level": 2, "bounds": {}},
    )))
    code, out, err = run_cli(capsys, "verify", "--trials", "3", "--scenario", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 6 and all(line.endswith(": pass (3 trials)") for line in lines)


@pytest.mark.parametrize("shifts", [1, 2])
def test_window_bounds_on_an_undeclared_variable_are_refused(capsys, tmp_path, shifts):
    # With two shift derivations, freezing registers x2 and x3 while checking
    # that they commute; bounds on x3 must be refused all the same.
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(_scenario_dict(
        variables=[{"name": "x1", "kind": "polynomial"}],
        derivations=[{"name": f"d{k}", "shift_prefix": "x"} for k in range(1, shifts + 1)],
        window={"max_level": 1, "bounds": {"x1": [0, 1], "x3": [0, 2]}},
    )))
    err = _assert_usage_error(capsys, path, "probe")
    assert err == "error: window bounds name an unknown variable 'x3'\n"


def test_missing_margin_is_the_probes_default():
    scenario = load_scenario_mapping(_scenario_dict())
    assert scenario.margin is DEFAULT_MARGIN


@pytest.mark.parametrize("margin", ["1", "-1/2"])
def test_margin_range_is_one_check(margin):
    with pytest.raises(UsageError) as from_text:
        parse_margin(margin)
    window = load_scenario_mapping(_scenario_dict()).window
    with pytest.raises(UsageError) as from_window:
        window.interior(Fraction(margin))
    assert str(from_text.value) == str(from_window.value) == "margin must satisfy 0 <= margin < 1"
