"""Time the probes on widened windows that load the kernels more than the
bundled scenarios do.

    python3 scripts/heavy_windows.py

Each window overrides a bundled scenario's variables, derivations, window
and probes (loaded with `load_scenario_mapping`) and holds one closure
probe.  For each window the script builds the report once and checks it,
then times WARM_BUILDS more builds, each of a freshly loaded window.  It
prints one line per window: the median seconds of those warm builds, the
verdicts and the sha256 of the first build's report bytes.  (One cold
build a window swung by half from run to run on one tree.)  It exits 1
when a verdict differs from the expected one or a sha256 from the pinned
one.  The imports come from this checkout's `src/`.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weyltype.probes import FULL_SPAN_MOD_F1 as FULL_SPAN  # noqa: E402
from weyltype.probes import PROPER_INVARIANT_SUBSPACE as PROPER  # noqa: E402
from weyltype.reports import build_report, report_bytes  # noqa: E402
from weyltype.scenario import Scenario, bundled_scenario_path, load_scenario_mapping  # noqa: E402

WARM_BUILDS = 5  # timed builds per window after the checked one

# name -> (bundled scenario, overrides, (kind, seed, expected verdict) of the
# probe, sha256 of the report bytes)
WINDOWS = {
    "closure_exhaust": (
        "nonsimple_euler",
        {"window": {"max_level": 6, "bounds": {"t": [0, 16]}}},
        ("lie_closure", "t^2*d1", PROPER),
        "b0e2062b8decefa1a5f651377c5b504d5d95da4886119cd2d25493c6b5b95284",
    ),
    "closure_multi": (
        "nonsimple_euler",
        {
            "variables": [{"name": "t1", "kind": "polynomial"}, {"name": "t2", "kind": "polynomial"}],
            "derivations": [
                {"name": "d1", "euler_weights": {"t1": 1, "t2": 0}},
                {"name": "d2", "euler_weights": {"t1": 0, "t2": 1}},
            ],
            "window": {"max_level": 2, "bounds": {"t1": [0, 4], "t2": [0, 4]}},
        },
        ("lie_closure", "t1^2*d1", PROPER),
        "d62033696174e11bd4dacf5c81f4958f68a3c750e6174aee485871e26846c4f8",
    ),
    "assoc_exhaust": (
        "nonsimple_euler",
        {"window": {"max_level": 6, "bounds": {"t": [0, 16]}}},
        ("assoc_closure", "t", PROPER),
        "454952f672cb211c87216d0ec87461474815a73614399487614708ca116c31f8",
    ),
    "kernel_wide": (
        "char2_poly",
        {"window": {"max_level": 6, "bounds": {"t": [0, 30]}}},
        ("assoc_closure", "d1^2", PROPER),
        "f007b0a154ad47462f35fcd18f5122efdc7cc0df27ca3de1bf5cf3378cfe21bc",
    ),
    "weyl_polynomial_20_8": (
        "weyl_polynomial",
        {"window": {"max_level": 8, "bounds": {"t": [0, 20]}}},
        ("lie_closure", "t*d1", FULL_SPAN),
        "9e0076145a945762c242d33dbdc8a7c7201c038b75d64cee0a5d33ede24b48ac",
    ),
    "mixed_x2_d3": (
        "mixed_flavors",
        {"window": {"max_level": 2, "bounds": {"t1": [0, 1], "t2": [0, 1], "x2": [-1, 1], "x3": [-1, 1]}}},
        ("lie_closure", "x2*d3", FULL_SPAN),
        "b648b8c8b1f15caf9478583ceeaadd194ca3b76d2512b071c66dd74f80fa51c5",
    ),
    "ga_wide": (
        "group_algebra_z2",
        {"window": {"max_level": 3, "bounds": {"g1": [-2, 2], "g2": [-2, 2]}}},
        ("lie_closure", "g1*d1", FULL_SPAN),
        "7e096c898284678972b028a07defb97c139844c9b949dad705c6f9c423a7a6e2",
    ),
}


def load_window(name: str) -> Scenario:
    base, overrides, (kind, seed, expect), _ = WINDOWS[name]
    data = json.loads(bundled_scenario_path(base).read_text())
    data.update(overrides)
    data["name"] = name
    data["probes"] = [{"kind": kind, "seed": seed, "expect": expect}]
    return load_scenario_mapping(data, name)


def run_window(name: str) -> tuple[float, dict, str]:
    """The seconds `build_report` took, the report and its sha256."""
    scenario = load_window(name)
    start = time.perf_counter()
    report = build_report(scenario)
    seconds = time.perf_counter() - start
    return seconds, report, hashlib.sha256(report_bytes(report)).hexdigest()


def main() -> int:
    ok = True
    for name, (*_, pinned) in WINDOWS.items():
        _, report, digest = run_window(name)
        seconds = statistics.median(run_window(name)[0] for _ in range(WARM_BUILDS))
        verdicts = ",".join(p["verdict"] for p in report["probes"])
        mismatch = "" if digest == pinned else f"  (pinned {pinned})"
        print(f"{name}: {seconds:.3f} s (median of {WARM_BUILDS} warm builds)  "
              f"{verdicts}  sha256 {digest}{mismatch}")
        ok = ok and report["all_expected"] and not mismatch
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
