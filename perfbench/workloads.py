"""Workload definitions and their correctness gates.

A workload is a list of items.  Each item is one in-process call of
``weyltype.cli.main`` with fixed arguments plus a gate on its exit code and
its standard output.  Every call loads its scenario file afresh, so every
pass builds a fresh ``Scenario``/``Context``: the derivative cache and the
lazily created shift variables live on the context, and the CLI pays their
fill on every invocation, so the benchmark must too.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

WORKLOADS = ("probe_bundled", "closure_wide", "action_wide", "algebra_ops")

# Full size: the sizes the baseline was recorded at.  Tiny size: the same
# code paths at a fraction of the cost, for the benchmark's own tests.
VERIFY_SCENARIOS = ("mixed_flavors", "char5_laurent_euler")
# Trials per suite in one pass.  The cost of a draw varies a lot with the
# seed (a 100-trial draw by about 13%), so a pass draws few trials and a run
# makes many passes, each with fresh inputs: the run's median then covers
# several draws and moves little from one --seed to the next.
VERIFY_TRIALS = {"full": 20, "tiny": 3}
NORMALIZE_EXPRESSIONS = {
    "full": (
        ("weyl_polynomial", "d1^400"),
        ("mixed_flavors", "(d1+d2+d3)^8"),
        ("mixed_flavors", "(t1*d1+x2*d2+x3^-1*d3)^5"),
    ),
    "tiny": (
        ("weyl_polynomial", "d1^12"),
        ("mixed_flavors", "(d1+d2+d3)^2"),
        ("mixed_flavors", "(t1*d1+x2*d2+x3^-1*d3)^2"),
    ),
}
# Tiny probe workloads run bundled scenarios, whose golden reports gate them.
TINY_PROBE_SCENARIOS = {
    "probe_bundled": ("char2_poly", "char5_laurent_euler"),
    "closure_wide": ("weyl_polynomial",),
    "action_wide": ("shift_family",),
}


@dataclass
class Item:
    """One CLI invocation and the gate its output must pass."""

    name: str
    argv: list[str]
    check: Callable[[int, bytes], bool]


@dataclass
class Workload:
    name: str
    items: list[Item]
    scenario_files: list[Path]  # what set-up loads and validates


def scenario_dir(root: Path) -> Path:
    return root / "src" / "weyltype" / "scenarios"


def _golden_check(expected: bytes) -> Callable[[int, bytes], bool]:
    return lambda rc, out: rc == 0 and out == expected


def _probe_digest_check(verdicts: list[str], sha256: str) -> Callable[[int, bytes], bool]:
    def check(rc: int, out: bytes) -> bool:
        if rc != 0 or hashlib.sha256(out).hexdigest() != sha256:
            return False
        report = json.loads(out)
        return [p["verdict"] for p in report["probes"]] == verdicts

    return check


def _verify_check(rc: int, out: bytes) -> bool:
    lines = out.decode().splitlines()
    return rc == 0 and len(lines) > 0 and all(": pass (" in line for line in lines)


def _probe_item(path: Path, check) -> Item:
    return Item(f"probe {path.stem}", ["probe", "--scenario", str(path)], check)


def _bundled_probe_items(root: Path, names) -> list[Item]:
    sdir = scenario_dir(root)
    return [
        _probe_item(
            sdir / f"{name}.json",
            _golden_check((sdir / "expected" / f"{name}.report.json").read_bytes()),
        )
        for name in names
    ]


def build(name: str, seed: int, root: Path, size: str = "full") -> Workload:
    """The items of one workload; `seed` feeds the seeded `verify` suites."""
    sdir = scenario_dir(root)
    if name == "algebra_ops":
        items = []
        for sname in VERIFY_SCENARIOS:
            argv = [
                "verify", "--scenario", str(sdir / f"{sname}.json"),
                "--trials", str(VERIFY_TRIALS[size]), "--seed", str(seed),
            ]
            items.append(Item(f"verify {sname}", argv, _verify_check))
        forms = json.loads((HERE / "expected" / "normalize.json").read_text())
        for sname, expr in NORMALIZE_EXPRESSIONS[size]:
            expected = (forms[sname][expr] + "\n").encode()
            argv = ["normalize", expr, "--scenario", str(sdir / f"{sname}.json")]
            items.append(Item(f"normalize {expr}", argv, _golden_check(expected)))
        names = set(VERIFY_SCENARIOS) | {s for s, _ in NORMALIZE_EXPRESSIONS[size]}
        return Workload(name, items, [sdir / f"{n}.json" for n in sorted(names)])
    if name in ("closure_wide", "action_wide") and size == "full":
        path = HERE / "scenarios" / f"{name}.json"
        expected = json.loads((HERE / "expected" / f"{name}.json").read_text())
        check = _probe_digest_check(expected["verdicts"], expected["report_sha256"])
        return Workload(name, [_probe_item(path, check)], [path])
    if name in TINY_PROBE_SCENARIOS:
        if size == "tiny":
            names = TINY_PROBE_SCENARIOS[name]
        else:
            names = sorted(p.stem for p in sdir.glob("*.json"))
        return Workload(name, _bundled_probe_items(root, names), [sdir / f"{n}.json" for n in names])
    raise ValueError(f"unknown workload {name!r}")


def run_item(cli, item: Item) -> tuple[int, bytes]:
    """Call `cli.main` in-process, capturing stdout as bytes.

    `main` is looked up on the module at each call, so an installed tracer
    sees it.
    """
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n", write_through=True)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        rc = cli.main(item.argv)
    finally:
        sys.stdout, sys.stderr = saved
    return rc, raw.getvalue()
