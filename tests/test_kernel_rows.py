"""theta_kernel and compute_f1 build their constraint rows from the cached
derivatives; the old construction is kept here as the oracle.

The oracle acts with one WeylElement per column (`act`), sorts each
monomial's rows by monomial_sort_key, and builds compute_f1's rows with
apply_derivation, sorted.  Each side runs on its own freshly loaded context,
so the shift variables each registers are compared too.
"""

import importlib.util
import itertools
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from weyltype import Window, probes
from weyltype.coefficients import Derivation, Monomial, monomial_sort_key
from weyltype.linalg import nullspace
from weyltype.operators import WeylElement, act, format_weyl, wbasis
from weyltype.probes import KERNEL_NONZERO, KERNEL_ZERO, a_from_coords, compute_f1, theta_kernel
from weyltype.scenario import bundled_scenario_names, load_bundled, load_scenario

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("heavy_windows", ROOT / "scripts" / "heavy_windows.py")
heavy_windows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(heavy_windows)

SCENARIOS = sorted(bundled_scenario_names()) + ["action_wide", "kernel_wide"]


def load(name):
    if name == "action_wide":
        return load_scenario(ROOT / "perfbench" / "scenarios" / "action_wide.json")
    if name == "kernel_wide":
        return heavy_windows.load_window(name)
    return load_bundled(name)


def one(ctx, m):
    return a_from_coords(ctx, [m], {0: 1})


def oracle_f1(ctx, window):
    labels = window.a_basis(ctx)
    rows = {}
    for d_idx, d in enumerate(ctx.derivations):
        for j, m in enumerate(labels):
            for rm, c in ctx.apply_derivation(d, one(ctx, m)).terms.items():
                rows.setdefault((d_idx, rm), {})[j] = c
    ordered = [rows[k] for k in sorted(rows, key=lambda t: (t[0], monomial_sort_key(t[1])))]
    return labels, nullspace(ordered, len(labels), ctx.spec)


def oracle_columns(ctx, window, restrict):
    multis = window.multi_indices(ctx)
    if restrict:
        labels, kernel = oracle_f1(ctx, window)
        coeffs = [a_from_coords(ctx, labels, vec) for vec in kernel]
        return [WeylElement(ctx, {alpha: u}) for alpha in multis for u in coeffs]
    return [wbasis(ctx, alpha, one(ctx, m)) for alpha in multis for m in window.a_basis(ctx)]


def row_monomials(ctx, window):
    a_labels = window.a_basis(ctx)
    return itertools.chain(a_labels, probes._outside_products(ctx, window, set(a_labels)))


def oracle_blocks(ctx, window, columns):
    """(monomial, {row monomial: {column: value}}) per monomial, rows sorted."""
    for am in row_monomials(ctx, window):
        elem = one(ctx, am)
        block = {}
        for col, b in enumerate(columns):
            for rm, c in act(b, elem).terms.items():
                block.setdefault(rm, {})[col] = c
        yield am, {rm: block[rm] for rm in sorted(block, key=monomial_sort_key)}


def oracle_theta_kernel(ctx, window, restrict):
    columns = oracle_columns(ctx, window, restrict)
    rows = (row for _, block in oracle_blocks(ctx, window, columns) for row in block.values())
    kernel = nullspace(rows, len(columns), ctx.spec)
    witness = []
    for vec in kernel:
        x = WeylElement(ctx, {})
        for j, c in vec.items():
            x = x + columns[j].scale(c)
        witness.append(x)
    kind = KERNEL_NONZERO if kernel else KERNEL_ZERO
    return kind, Fraction(len(columns) - len(kernel), len(columns)), witness


def typed(spec, block):
    """The block with each value tagged by its type, after checking that it is
    canonical: over Q an int or a non-integral Fraction, over F_p an int in [1, p)."""
    out = {}
    for rm, row in block.items():
        for j, c in row.items():
            if spec.p is None:
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
            else:
                assert type(c) is int and 0 < c < spec.p
        out[rm] = {j: (type(c), c) for j, c in row.items()}
    return out


def variable_names(ctx):
    return [v.name for v in ctx.variables]


def theta_coeffs(name, restrict):
    """The column coefficients theta_kernel hands _action_block, on a load
    of its own; Monomials belong to no context, so they serve any load."""
    seen = []
    block = probes._action_block

    def record(ctx, multis, coeffs, a):
        seen.append(coeffs)
        return block(ctx, multis, coeffs, a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probes, "_action_block", record)
        scenario = load(name)
        theta_kernel(scenario.ctx, scenario.window, restrict_to_f1=restrict)
    assert all(coeffs is seen[0] for coeffs in seen)
    return seen[0]


@pytest.mark.parametrize("restrict", [False, True])
@pytest.mark.parametrize("name", SCENARIOS)
def test_rows_per_monomial_equal_the_act_oracle(name, restrict):
    # Every monomial's block is built from the coefficients theta_kernel
    # uses: window Monomials, which take _action_block's monomial path, or
    # f1's coefficient term dicts.
    new, old = load(name), load(name)
    ctx, window = new.ctx, new.window
    multis = window.multi_indices(ctx)
    coeffs = theta_coeffs(name, restrict)
    if restrict:
        f1 = compute_f1(ctx, window)
        assert coeffs == [a_from_coords(ctx, f1.labels, vec).terms for vec in f1.vectors()]
        assert all(type(u) is dict for u in coeffs)
    else:
        assert coeffs == window.a_basis(ctx)
        assert all(type(u) is Monomial for u in coeffs)
    columns = oracle_columns(old.ctx, old.window, restrict)
    assert len(columns) == len(multis) * len(coeffs)
    blocks = list(oracle_blocks(old.ctx, old.window, columns))
    assert [am for am, _ in blocks] == list(row_monomials(ctx, window))
    for am, expected in blocks:
        block = probes._action_block(ctx, multis, coeffs, probes._a_element(ctx, am))
        assert typed(ctx.spec, block) == typed(ctx.spec, expected)
    assert variable_names(ctx) == variable_names(old.ctx)


@pytest.mark.parametrize("restrict", [False, True])
@pytest.mark.parametrize("name", SCENARIOS)
def test_verdict_equals_the_act_oracle(name, restrict):
    new, old = load(name), load(name)
    verdict = theta_kernel(new.ctx, new.window, restrict_to_f1=restrict)
    kind, coverage, witness = oracle_theta_kernel(old.ctx, old.window, restrict)
    assert (verdict.kind, verdict.coverage) == (kind, coverage)
    assert [format_weyl(x) for x in verdict.witness] == [format_weyl(x) for x in witness]
    assert variable_names(new.ctx) == variable_names(old.ctx)


@pytest.mark.parametrize("name", SCENARIOS)
def test_f1_equals_the_apply_derivation_oracle(name):
    new, old = load(name), load(name)
    basis = compute_f1(new.ctx, new.window)
    labels, kernel = oracle_f1(old.ctx, old.window)
    assert basis.labels == labels
    assert basis.vectors() == kernel
    assert variable_names(new.ctx) == variable_names(old.ctx)


def test_f1_resolves_each_generator_image_once(shift_ctx, monkeypatch):
    # Every uncached monomial derivative used to resolve the image of each of
    # its variables again; now each (derivation, variable) image is resolved
    # once per context and kept.
    window = Window.for_context(shift_ctx, {name: (0, 3) for name in ("x1", "x2", "x3")}, max_level=3)
    resolved = Counter()
    shift_target = Derivation.shift_target

    def counted(d, var):
        resolved[(d.index, var.index)] += 1
        return shift_target(d, var)

    monkeypatch.setattr(Derivation, "shift_target", counted)
    compute_f1(shift_ctx, window)
    assert resolved == {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    assert len(shift_ctx._dcache) == 64
    assert variable_names(shift_ctx) == ["x1", "x2", "x3", "x4"]
