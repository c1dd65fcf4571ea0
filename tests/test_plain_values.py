"""Plain field values in the kernel.

The kernel loops (mul_terms, add_terms, axpy_into) store and combine plain
values and reduce mod p inline.  Scalar does each field operation on its
own, so it serves as the independent oracle: on Hypothesis-drawn term dicts
over Q and F_p, p in {2, 3, 5, 7}, each loop must give what the same
computation gives with Scalar operations, in the same canonical form.

The canonical form is pinned on real outputs too: every term value of the
bundled scenarios' probe witnesses and of verify's random draws is, over Q,
an int or a Fraction whose denominator is not 1, and over F_p an int in
[0, p).
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyltype import RATIONAL, FieldSpec
from weyltype.checks import SampleBounds, random_a, random_scalar, random_weyl
from weyltype.cli import main
from weyltype.coefficients import Monomial, add_terms, mul_terms, nonzero
from weyltype.fields import Scalar
from weyltype.linalg import axpy_into
from weyltype.operators import WeylElement, act, lie_bracket, w_mul
from weyltype.probes import a_from_coords, compute_f1
from weyltype.reports import build_report
from weyltype.scenario import bundled_scenario_names, bundled_scenario_path, load_bundled

FIELDS = [RATIONAL] + [FieldSpec("prime", p) for p in (2, 3, 5, 7)]
MONOMIALS = [Monomial(((0, e),) if e else ()) for e in range(-2, 4)] + [Monomial(((0, 1), (1, 2)))]


def values(spec):
    """Nonzero plain values: n/d over Q, the residue of an integer over F_p."""
    if spec.p is None:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)).map(spec.value).filter(bool)
    return st.integers(-20, 20).map(spec.value).filter(bool)


def assert_canonical(spec, terms: dict) -> None:
    for c in terms.values():
        assert c
        if spec.p is None:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        else:
            assert type(c) is int and 0 <= c < spec.p


def unboxed(terms: dict) -> dict:
    """Scalar values back to plain ones, zeros dropped, with their types."""
    return {k: (s.value, type(s.value)) for k, s in terms.items() if s}


def typed(terms: dict) -> dict:
    return {k: (c, type(c)) for k, c in terms.items()}


@st.composite
def cases(draw):
    """(field, terms, terms, a scalar or None) over a few monomials."""
    spec = draw(st.sampled_from(FIELDS))
    terms = st.dictionaries(st.sampled_from(MONOMIALS), values(spec), max_size=4)
    return spec, draw(terms), draw(terms), draw(st.none() | values(spec))


@settings(max_examples=40, deadline=None)
@given(cases())
def test_mul_terms_and_add_terms_match_scalar_arithmetic(case):
    spec, left, right, c = case
    s = None if c is None else spec.scalar(c)
    box = {m: spec.scalar(v) for m, v in left.items()}
    product = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            t = spec.scalar(c1) * spec.scalar(c2) * (s if s is not None else 1)
            product[m1 * m2] = product.get(m1 * m2, spec.scalar(0)) + t
    summed = dict(box)
    for m, v in right.items():
        t = spec.scalar(v) * (s if s is not None else 1)
        summed[m] = summed.get(m, spec.scalar(0)) + t

    out = {}
    mul_terms(out, left, right, {}, spec.p, c)
    if spec.p is not None:
        assert all(0 <= v < spec.p for v in out.values())
    assert typed(nonzero(out)) == unboxed(product)
    out = dict(left)
    add_terms(out, right, spec.p, c)
    assert typed(nonzero(out)) == unboxed(summed)
    assert_canonical(spec, nonzero(out))


@st.composite
def axpy_cases(draw):
    """(field, target vector, row vector, nonzero scalar)."""
    spec = draw(st.sampled_from(FIELDS))
    vector = st.dictionaries(st.integers(0, 5), values(spec), max_size=5)
    return spec, draw(vector), draw(vector), draw(values(spec))


@settings(max_examples=40, deadline=None)
@given(axpy_cases())
def test_axpy_into_matches_scalar_arithmetic(case):
    spec, target, row, c = case
    expected = {j: spec.scalar(v) for j, v in target.items()}
    for j, v in row.items():
        expected[j] = expected.get(j, spec.scalar(0)) - spec.scalar(c) * spec.scalar(v)
    axpy_into(target, c, row, spec.p)
    assert typed(target) == unboxed(expected)
    assert_canonical(spec, target)


def _coefficients(elem):
    """The coefficient elements of an operator, or the element itself."""
    return elem.terms.values() if isinstance(elem, WeylElement) else [elem]


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_probe_witnesses_hold_canonical_values(name):
    scenario = load_bundled(name)
    verdicts = []
    build_report(scenario, verdicts)
    f1 = compute_f1(scenario.ctx, scenario.window)
    elements = [a_from_coords(scenario.ctx, f1.labels, vec) for vec in f1.vectors()]
    elements += [e for v in verdicts for e in v.witness + [step.element for step in v.steps]]
    assert elements
    for elem in elements:
        for u in _coefficients(elem):
            assert_canonical(scenario.ctx.spec, u.terms)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_verify_draws_hold_canonical_values(name):
    scenario = load_bundled(name)
    ctx, spec = scenario.ctx, scenario.ctx.spec
    rng = random.Random(f"canonical:{name}")
    bounds = SampleBounds(max_degree=3, max_level=2, max_terms=2)
    for _ in range(4):
        x, y = random_weyl(rng, ctx, bounds), random_weyl(rng, ctx, bounds)
        a = random_a(rng, ctx, bounds)
        c = random_scalar(rng, ctx)
        assert_canonical(spec, {0: c} if c else {})
        for elem in (x, y, a, w_mul(x, y), lie_bracket(x, y), act(x, a), x.scale(c), a * c):
            for u in _coefficients(elem):
                assert_canonical(spec, u.terms)


def test_the_kernel_calls_no_scalar_method(monkeypatch, capsys):
    # Every Scalar operation raises, so any one the commands below reach fails
    # them as an internal error.
    def refuse(*args):
        raise AssertionError("a Scalar method ran")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__bool__", "__eq__", "__hash__", "inverse"):
        monkeypatch.setattr(Scalar, name, refuse)
    wide = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"
    commands = [["probe", "--scenario", str(path)] for path in sorted(wide.glob("*.json"))]
    for name in bundled_scenario_names():
        path = str(bundled_scenario_path(name))
        commands += [["probe", "--scenario", path], ["verify", "--trials", "2", "--scenario", path]]
    commands.append(["normalize", "(1/2*t*d1 - 3)^3", "--scenario", str(bundled_scenario_path("weyl_polynomial"))])
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()
