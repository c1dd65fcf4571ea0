"""Metamorphic tests: a change to a scenario that cannot change the algebra
must not change any probe outcome."""

import json
import re

import pytest

from weyltype.parser import IDENT, tokenize
from weyltype.reports import build_report, report_bytes
from weyltype.scenario import bundled_scenario_names, bundled_scenario_path, load_scenario_mapping

STAT_FIELDS = ("tried", "zero", "discarded", "in_span", "accepted", "ranks", "stop")


def _renamer(prefixes: set):
    """New name for a variable or derivation.  A shift family member keeps its
    number under a renamed prefix; any other name gains a trailing "_", so no
    renamed name looks like a family member."""

    def rename(name: str) -> str:
        m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*?)(\d+)", name)
        if m and m.group(1) in prefixes:
            return f"r_{name}"
        return f"r_{name}_"

    return rename


def _rewrite(text: str, rename) -> str:
    """text with each identifier token renamed, every other character kept."""
    out, end = [], 0
    for token in tokenize(text):
        if token.kind == IDENT:
            out.append(text[end:token.pos] + rename(token.text))
            end = token.pos + len(token.text)
    return "".join(out) + text[end:]


def _renamed(data: dict) -> dict:
    prefixes = {d["shift_prefix"] for d in data["derivations"] if "shift_prefix" in d}
    rename = _renamer(prefixes)
    out = dict(data)
    out["variables"] = [{**v, "name": rename(v["name"])} for v in data["variables"]]
    derivations = []
    for d in data["derivations"]:
        d = {**d, "name": rename(d["name"])}
        if "shift_prefix" in d:
            d["shift_prefix"] = f"r_{d['shift_prefix']}"
        if "images" in d:
            d["images"] = {rename(v): _rewrite(e, rename) for v, e in d["images"].items()}
        if "euler_weights" in d:
            d["euler_weights"] = {rename(v): w for v, w in d["euler_weights"].items()}
        derivations.append(d)
    out["derivations"] = derivations
    out["window"] = {**data["window"],
                     "bounds": {rename(v): b for v, b in data["window"]["bounds"].items()}}
    out["probes"] = [{**p, "seed": _rewrite(p["seed"], rename)} if "seed" in p else p
                     for p in data["probes"]]
    return out


def _outcomes(data: dict) -> tuple[list, bytes]:
    verdicts: list = []
    report = build_report(load_scenario_mapping(data), verdicts)
    outcomes = [
        (v.kind, v.coverage, len(v.witness), len(v.unreached),
         None if v.stats is None else tuple(getattr(v.stats, f) for f in STAT_FIELDS))
        for v in verdicts
    ]
    return outcomes, report_bytes(report)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_renaming_changes_no_probe_outcome(name):
    data = json.loads(bundled_scenario_path(name).read_text())
    renamed = _renamed(data)
    assert renamed != data
    outcomes, report = _outcomes(data)
    renamed_outcomes, renamed_report = _outcomes(renamed)
    assert renamed_outcomes == outcomes
    # Mapping the new names back gives the original report, byte for byte.
    restored = re.sub(rb"\br_([A-Za-z_0-9]*?)_?(?![A-Za-z_0-9])", rb"\1", renamed_report)
    assert restored == report
