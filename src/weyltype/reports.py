"""Deterministic probe execution and JSON report assembly for a scenario.

Identical inputs produce identical report bytes: every collection that is
derived from a set or dict is sorted before serialization, and no clocks,
paths, or environment data enter the report.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .coefficients import format_a_element
from .operators import format_weyl
from .probes import (
    ProbeVerdict,
    compute_f1,
    a_from_coords,
    assoc_ideal_closure_probe,
    closure_tables,
    d_simplicity_probe,
    lie_ideal_closure_probe,
    theta_kernel,
)
from .scenario import ProbeRequest, Scenario


def fraction_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def run_probe(scenario: Scenario, request: ProbeRequest, f1, tables=None) -> ProbeVerdict:
    """One probe's verdict; `tables` are the window's closure_tables, which
    an operator closure probe builds itself when they are not given."""
    ctx, window, seed = scenario.ctx, scenario.window, request.seed
    if request.kind == "theta_kernel":
        return theta_kernel(ctx, window, restrict_to_f1=request.restrict_to_f1, f1=f1)
    if request.kind == "d_simplicity":
        return d_simplicity_probe(ctx, seed.a_part(), window)
    if request.kind == "assoc_closure":
        return assoc_ideal_closure_probe(ctx, seed, window, tables)
    if request.kind == "lie_closure":
        return lie_ideal_closure_probe(ctx, seed, window, f1, margin=scenario.margin, tables=tables)
    raise AssertionError(f"unhandled probe kind {request.kind}")


def _format_witness(verdict: ProbeVerdict) -> list[str]:
    out = []
    for elem in verdict.witness:
        out.append(format_weyl(elem) if hasattr(elem, "a_part") else format_a_element(elem))
    return out


def build_report(scenario: Scenario, verdicts: list | None = None) -> dict:
    """The scenario's report; each probe's ProbeVerdict is also appended to
    `verdicts`, in probe order, when it is given."""
    ctx, window = scenario.ctx, scenario.window
    f1 = compute_f1(ctx, window)
    report: dict = {
        "scenario": scenario.name,
        "description": scenario.description,
        "field": str(ctx.spec),
        "window": {
            "max_level": window.max_level,
            "bounds": {
                ctx.variables[i].name: [lo, hi] for i, lo, hi in window.bounds
            },
            "basis_cap": window.basis_cap,
        },
        "margin": fraction_text(scenario.margin),
        "f1": {
            "dimension": f1.dim,
            "basis": [
                format_a_element(a_from_coords(ctx, f1.labels, vec))
                for vec in f1.vectors()
            ],
        },
        "probes": [],
    }
    all_expected = True
    # The window's a_basis is built once, as f1's labels, and shared with
    # theta_kernel (through f1) and the closure tables.
    tables = None  # built once, for the first operator closure probe
    for request in scenario.probes:
        if tables is None and request.kind in ("assoc_closure", "lie_closure"):
            tables = closure_tables(ctx, window, f1.labels)
        verdict = run_probe(scenario, request, f1, tables)
        if verdicts is not None:
            verdicts.append(verdict)
        entry: dict = {
            "kind": request.kind,
            "verdict": verdict.kind,
            "coverage": fraction_text(verdict.coverage),
        }
        if request.seed_text is not None:
            entry["seed"] = request.seed_text
        if request.kind == "theta_kernel" and request.restrict_to_f1:
            entry["restrict_to_f1"] = True
        entry["witness"] = _format_witness(verdict)
        if verdict.unreached:
            entry["unreached"] = verdict.unreached
        if verdict.note:
            entry["note"] = verdict.note
        if request.expect is not None:
            entry["expected"] = request.expect
            entry["matches_expected"] = verdict.kind == request.expect
            all_expected = all_expected and entry["matches_expected"]
        report["probes"].append(entry)
    report["all_expected"] = all_expected
    return report


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, ensure_ascii=True) + "\n").encode("ascii")
