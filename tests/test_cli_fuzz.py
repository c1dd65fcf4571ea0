"""Fuzz the CLI with mutated bundled scenarios and expressions.

Each example takes a bundled scenario mapping and mutates it: drops a key,
retypes a value, swaps a probe's kind, expect, seed or restrict_to_f1 for a
value from any bundled probe, or edits an expression string.  Whatever the
input, `cli.main` must exit 0, 1 or 2, print exactly one stderr line on exit
2, and never print a traceback.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from weyltype import cli
from weyltype.scenario import bundled_scenario_names, bundled_scenario_path

MAPPINGS = {
    name: json.loads(bundled_scenario_path(name).read_text()) for name in bundled_scenario_names()
}
PROBE_FIELDS = ("kind", "expect", "seed", "restrict_to_f1")
# Every value any bundled probe gives any of its fields, plus both booleans.
PROBE_VALUES = sorted(
    {json.dumps(probe[key]) for data in MAPPINGS.values() for probe in data["probes"]
     for key in PROBE_FIELDS if key in probe} | {"true", "false"}
)
RETYPED = [None, True, False, 0, -1, 2, 1.5, "", "x", "1/2", [], {}, [0, 1], {"kind": "rational"}]
EXPRESSION_CHARS = "t12gx+-*/^() 0789d.#\n"


def paths(node, prefix=()):
    """The path of every key and list item under node, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def expression_paths(data):
    """Paths of the derivation images and probe seeds, the parsed strings."""
    return [path for path in paths(data) if isinstance(get(data, path), str)
            and ((path[0] == "derivations" and len(path) == 4 and path[2] == "images")
                 or (path[0] == "probes" and path[2:] == ("seed",)))]


def get(data, path):
    for key in path:
        data = data[key]
    return data


def edit_text(draw, text: str) -> str:
    at = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(["insert", "delete", "replace"]))
    char = draw(st.sampled_from(EXPRESSION_CHARS))
    if op == "insert":
        return text[:at] + char + text[at:]
    if op == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + char + text[at + 1:]


@st.composite
def mutated_scenarios(draw):
    data = copy.deepcopy(MAPPINGS[draw(st.sampled_from(sorted(MAPPINGS)))])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "retype", "swap", "expression"]))
        if not isinstance(data, dict):
            break
        if op == "swap" and isinstance(data.get("probes"), list) and data["probes"]:
            probe = draw(st.sampled_from(data["probes"]))
            if isinstance(probe, dict):
                probe[draw(st.sampled_from(PROBE_FIELDS))] = json.loads(draw(st.sampled_from(PROBE_VALUES)))
            continue
        if op == "expression" and expression_paths(data):
            path = draw(st.sampled_from(expression_paths(data)))
            parent = get(data, path[:-1])
            parent[path[-1]] = edit_text(draw, parent[path[-1]])
            continue
        path = draw(st.sampled_from([()] + list(paths(data))))
        if not path:
            data = copy.deepcopy(draw(st.sampled_from(RETYPED)))
            continue
        parent = get(data, path[:-1])
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(RETYPED)))
    return data


def run(argv):
    """(exit code, stdout, stderr) of one cli.main call; an argument error
    leaves main as SystemExit, as it leaves the process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in out + err


@settings(max_examples=150, deadline=None)
@given(data=mutated_scenarios())
def test_mutated_scenarios_exit_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(data))
    assert_clean_exit(*run(["probe", "--scenario", str(path)]))


# (scenario name, an image or seed of it), for every one in the bundle.
EXPRESSIONS = [(name, get(data, path)) for name, data in sorted(MAPPINGS.items())
               for path in expression_paths(data)]


@st.composite
def mutated_expressions(draw):
    name, text = draw(st.sampled_from(EXPRESSIONS))
    for _ in range(draw(st.integers(1, 3))):
        text = edit_text(draw, text)
    return name, text


@settings(max_examples=150, deadline=None)
@given(case=mutated_expressions(), command=st.sampled_from(["normalize", "bracket", "act"]))
def test_mutated_expressions_exit_cleanly(case, command):
    name, text = case
    args = {"normalize": [text], "bracket": [text, text], "act": [text, "t"]}[command]
    assert_clean_exit(*run([command, *args, "--scenario", str(bundled_scenario_path(name))]))
