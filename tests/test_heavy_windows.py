"""The widened windows of scripts/heavy_windows.py load and validate.  Most
probes on them are too slow for tier-1 and run only in the script; the
kernel_wide assoc_closure, a fraction of a second, bounds the work of the
principal-symbol test."""

import importlib.util
from pathlib import Path

import pytest

from weyltype import probes

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


def test_kernel_wide_assoc_closure_forms_only_products_that_fit(monkeypatch):
    # The principal symbol decides every discard of this probe, so each
    # product it forms fits the window: 14,570 of them, where forming every
    # product took 66,960.
    scenario = heavy_windows.load_window("kernel_wide")
    request, = scenario.probes
    index = {lab: j for j, lab in enumerate(scenario.window.ad_basis(scenario.ctx))}
    calls, outside = [0], [0]
    original = probes.w_mul

    def counted(x, y, guard=None):
        z = original(x, y, guard)
        calls[0] += 1
        outside[0] += probes.weyl_coords(z, index) is None
        return z

    monkeypatch.setattr(probes, "w_mul", counted)
    verdict = probes.assoc_ideal_closure_probe(scenario.ctx, request.seed, scenario.window)
    assert verdict.kind == request.expect
    assert calls[0] == 14_570
    assert outside[0] == 0
    assert verdict.stats.discarded == verdict.stats.predicted == 52_390
