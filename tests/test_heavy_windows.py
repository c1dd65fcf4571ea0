"""The widened windows of scripts/heavy_windows.py load and validate; the
probes themselves are too slow for tier-1 and run only in the script."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "heavy_windows.py"
_spec = importlib.util.spec_from_file_location("heavy_windows", SCRIPT)
heavy_windows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(heavy_windows)


@pytest.mark.parametrize("name", sorted(heavy_windows.WINDOWS))
def test_heavy_window_loads_and_validates(name):
    scenario = heavy_windows.load_window(name)
    _, overrides, (kind, seed, expect) = heavy_windows.WINDOWS[name]
    assert scenario.name == name
    request, = scenario.probes
    assert (request.kind, request.seed_text, request.expect) == (kind, seed, expect)
    bounds = {scenario.ctx.variables[i].name: [lo, hi] for i, lo, hi in scenario.window.bounds}
    assert bounds == overrides["window"]["bounds"]
    assert scenario.window.max_level == overrides["window"]["max_level"]
    assert len(scenario.window.ad_basis(scenario.ctx)) <= scenario.window.basis_cap
