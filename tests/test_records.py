"""The package's record types: value semantics, immutability, and no
dataclasses (importing the package must not generate code for them)."""

import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import weyltype
from weyltype.checks import SampleBounds
from weyltype.cli import main
from weyltype.coefficients import POLYNOMIAL, Monomial, VariableSpec
from weyltype.errors import UsageError
from weyltype.fields import RATIONAL, FieldSpec
from weyltype.multiindex import MultiIndex
from weyltype.probes import ClosureStep, Window
from weyltype.scenario import bundled_scenario_path

PACKAGE_DIR = Path(weyltype.__file__).parent


def test_field_specs_compare_and_hash_by_value():
    f5, again = FieldSpec("prime", 5), FieldSpec("prime", 5)
    assert f5 is not again
    assert f5 == again and hash(f5) == hash(again)
    assert len({f5, again}) == 1
    assert f5 != RATIONAL and f5 != FieldSpec("prime", 7)
    assert RATIONAL == FieldSpec("rational")
    assert f5 != ("prime", 5)
    for clone in (copy.copy(f5), copy.deepcopy(f5), pickle.loads(pickle.dumps(f5))):
        assert clone == f5 and hash(clone) == hash(f5)


def test_variable_specs_compare_and_hash_by_value():
    t, again = VariableSpec("t", POLYNOMIAL, 0, True), VariableSpec("t", POLYNOMIAL, 0, True)
    assert t == again and hash(t) == hash(again)
    assert t != VariableSpec("t", POLYNOMIAL, 0, False)
    assert t != VariableSpec("t", POLYNOMIAL, 1, True)
    assert (t.name, t.kind, t.index, t.declared) == ("t", POLYNOMIAL, 0, True)
    assert pickle.loads(pickle.dumps(t)) == t


def test_value_records_print_their_constructor_arguments():
    assert repr(FieldSpec("prime", 5)) == "FieldSpec('prime', 5)"
    assert repr(VariableSpec("t", POLYNOMIAL, 0, True)) == "VariableSpec('t', 'polynomial', 0, True)"


@pytest.mark.parametrize("args", [("real",), ("rational", 3), ("prime",), ("prime", 4), ("prime", 1)])
def test_bad_field_specs_are_usage_errors(args):
    with pytest.raises(UsageError):
        FieldSpec(*args)


def test_bad_variable_kind_is_a_usage_error():
    with pytest.raises(UsageError, match="unknown variable kind"):
        VariableSpec("t", "matrix", 0, True)


@pytest.mark.parametrize(
    "record, attribute",
    [
        (FieldSpec("prime", 5), "p"),
        (VariableSpec("t", POLYNOMIAL, 0, True), "index"),
        (Window(bounds=((0, 0, 4),), max_level=2), "max_level"),
        (SampleBounds(), "max_terms"),
        (ClosureStep("bracket", "d1", -1, None), "parent"),
        (Monomial(((0, 2),)), "exps"),
        (MultiIndex(((1, 3),)), "entries"),
    ],
)
def test_records_refuse_assignment(record, attribute):
    before = getattr(record, attribute)
    with pytest.raises(AttributeError):
        setattr(record, attribute, 3)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 3)
    assert getattr(record, attribute) == before


# `probe --stats` for weyl_polynomial.  The keys come in the order of the
# fields of the former ProbeStats dataclass, with `skipped` after
# `accepted`.
WEYL_POLYNOMIAL_STATS = "".join(line + "\n" for line in (
    '{"scenario": "weyl_polynomial", "probe": 0, "kind": "theta_kernel"}',
    '{"scenario": "weyl_polynomial", "probe": 1, "kind": "d_simplicity", "seed": "t", "tried": 7, '
    '"zero": 0, "discarded": 1, "in_span": 0, "accepted": 6, "skipped": 0, "ranks": [1, 7], '
    '"stop": "identity"}',
    '{"scenario": "weyl_polynomial", "probe": 2, "kind": "assoc_closure", "seed": "d1", "tried": 2, '
    '"zero": 0, "discarded": 0, "in_span": 0, "accepted": 2, "skipped": 0, "ranks": [1, 3], '
    '"stop": "identity"}',
    '{"scenario": "weyl_polynomial", "probe": 3, "kind": "assoc_closure", "seed": "t^2", "tried": 44, '
    '"zero": 0, "discarded": 0, "in_span": 12, "accepted": 20, "skipped": 12, "ranks": [1, 21], '
    '"stop": "identity"}',
    '{"scenario": "weyl_polynomial", "probe": 4, "kind": "assoc_closure", "seed": "t*d1", "tried": 121, '
    '"zero": 0, "discarded": 14, "in_span": 14, "accepted": 25, "skipped": 68, "ranks": [1, 25, 26], '
    '"stop": "identity"}',
    '{"scenario": "weyl_polynomial", "probe": 5, "kind": "lie_closure", "seed": "t*d1", "tried": 214, '
    '"zero": 3, "discarded": 0, "in_span": 7, "accepted": 27, "skipped": 177, "ranks": [1, 25, 28], '
    '"stop": "saturated"}',
))

# The counts of each closure line that the graded skip moves: with it on,
# and with it off, as they read before it.
SKIP_COUNTS = (
    ('"zero": 0, "discarded": 0, "in_span": 12, "accepted": 20, "skipped": 12',
     '"zero": 0, "discarded": 12, "in_span": 12, "accepted": 20, "skipped": 0'),
    ('"zero": 0, "discarded": 14, "in_span": 14, "accepted": 25, "skipped": 68',
     '"zero": 0, "discarded": 50, "in_span": 46, "accepted": 25, "skipped": 0'),
    ('"zero": 3, "discarded": 0, "in_span": 7, "accepted": 27, "skipped": 177',
     '"zero": 42, "discarded": 45, "in_span": 100, "accepted": 27, "skipped": 0'),
)


def test_probe_stats_lines_are_unchanged(capsys, monkeypatch):
    path = str(bundled_scenario_path("weyl_polynomial"))
    assert main(["probe", "--scenario", path, "--stats"]) == 0
    assert capsys.readouterr().err == WEYL_POLYNOMIAL_STATS
    unskipped = WEYL_POLYNOMIAL_STATS
    for on, off in SKIP_COUNTS:
        assert unskipped.count(on) == 1
        unskipped = unskipped.replace(on, off)
    monkeypatch.setattr(Window, "pieces", lambda self, ctx, labels=None: None)
    assert main(["probe", "--scenario", path, "--stats"]) == 0
    assert capsys.readouterr().err == unskipped


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name} imports dataclasses"


def test_only_the_frozen_base_refuses_assignment():
    # Every immutable class inherits fields._Frozen rather than writing its own guard.
    owners = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__"):
                        owners.append((path.name, node.name, item.name))
    assert owners == [("fields.py", "_Frozen", "__setattr__"), ("fields.py", "_Frozen", "__delattr__")]


def test_no_class_is_a_dataclass():
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"weyltype.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                assert not dataclasses.is_dataclass(cls), f"{module.__name__}.{name}"
