"""The package's public names: what `weyltype.__all__` promises, and that the
acceptance suite and the README library example need nothing beyond it."""

import ast
import re
from pathlib import Path

import weyltype

ROOT = Path(__file__).resolve().parent.parent


def _names_imported_from_weyltype(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "weyltype" and node.level == 0
        for alias in node.names
    }


def test_every_public_name_resolves():
    assert len(set(weyltype.__all__)) == len(weyltype.__all__)
    for name in weyltype.__all__:
        assert getattr(weyltype, name) is not None, name


def test_acceptance_suite_and_readme_import_only_public_names():
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"```python\n(.*?)```", readme[readme.index("## Library use"):], re.S)
    used = _names_imported_from_weyltype(acceptance) | _names_imported_from_weyltype(example.group(1))
    assert {"Context", "lie_ideal_closure_probe", "theta_kernel"} <= used
    assert used <= set(weyltype.__all__), sorted(used - set(weyltype.__all__))
