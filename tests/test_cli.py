import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weyltype import cli
from weyltype.cli import main
from weyltype.errors import InternalError, ValidationError
from weyltype.scenario import (
    bundled_scenario_names,
    bundled_scenario_path,
    load_bundled,
    load_scenario_mapping,
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


def _assert_matches_recorded_digest(capsys, name):
    root = Path(__file__).resolve().parent.parent / "perfbench"
    code, out, _ = run_cli(capsys, "probe", "--scenario", str(root / "scenarios" / f"{name}.json"))
    expected = json.loads((root / "expected" / f"{name}.json").read_text())
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == expected["report_sha256"]
    assert [p["verdict"] for p in json.loads(out)["probes"]] == expected["verdicts"]


def test_probe_widened_window_matches_recorded_digest(capsys):
    # The benchmark's widened weyl_polynomial window (t in [0, 12], level 5)
    # makes 6,006 closure brackets, most of which cancel heavily; any change
    # to a bracket's value moves this report's digest.
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


def test_verify_mixed_scenario_200_trials(capsys):
    path = str(bundled_scenario_path("mixed_flavors"))
    code, out, _ = run_cli(capsys, "verify", "--scenario", path, "--trials", "200", "--seed", "42")
    assert code == 0
    assert out.count("pass") == 6


def test_verify_zero_trials_vacuous(capsys, s_weyl):
    code, out, _ = run_cli(capsys, "verify", "--scenario", s_weyl, "--trials", "0")
    assert code == 0


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
            {"kind": "d_simplicity", "seed": "d1"},
            {"kind": "lie_closure"},
        ],
    )
    with pytest.raises(ValidationError) as err:
        load_scenario_mapping(data)
    text = str(err.value)
    assert "no bounds" in text
    assert "unknown kind" in text
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


@pytest.mark.parametrize(
    "exc", [RuntimeError("boom\nsecond line"), InternalError("self-check failed")]
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
