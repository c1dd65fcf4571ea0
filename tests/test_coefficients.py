import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weyltype
from weyltype import (
    Context,
    FieldSpec,
    RATIONAL,
    UsageError,
    ValidationError,
    VariableCapError,
)
from weyltype import coefficients
from weyltype.checks import SampleBounds, random_a
from weyltype.coefficients import (
    LAURENT,
    ONE_MONOMIAL,
    Monomial,
    format_a_element,
    format_monomial,
    mul_terms,
    nonzero,
)
from weyltype.scenario import bundled_scenario_names, load_bundled


def test_polynomial_product(weyl_q):
    t, one = weyl_q.var("t"), weyl_q.one()
    assert (t + one) * (t - one) == weyl_q.var("t", 2) - one


def test_laurent_unit_cancellation(laurent_euler_q):
    ctx = laurent_euler_q
    assert ctx.var("t", -1) * ctx.var("t") == ctx.one()


def test_freshmans_dream_in_char2():
    ctx = Context(FieldSpec("prime", 2))
    ctx.add_variable("t")
    u = ctx.var("t") + ctx.one()
    assert u * u == ctx.var("t", 2) + ctx.one()


def test_scaling_and_zero_stripping(weyl_q):
    ctx = weyl_q
    u = ctx.var("t") * 3
    assert (u - u).is_zero()
    assert u.scale(0).is_zero()
    assert u * Fraction(1, 3) == ctx.var("t")


def test_derivative_of_power(weyl_q):
    ctx = weyl_q
    d = ctx.derivation("d1")
    assert ctx.apply_derivation(d, ctx.var("t", 3)) == ctx.var("t", 2) * 3


def test_euler_on_negative_power(laurent_euler_q):
    ctx = laurent_euler_q
    d = ctx.derivation("d1")
    assert ctx.apply_derivation(d, ctx.var("t", -2)) == ctx.var("t", -2) * (-2)


def test_char5_derivative_of_fifth_power():
    ctx = Context(FieldSpec("prime", 5))
    ctx.add_variable("t")
    ctx.add_derivation("d1", images={"t": ctx.one()})
    ctx.freeze()
    assert ctx.apply_derivation(ctx.derivation("d1"), ctx.var("t", 5)).is_zero()


def test_shift_rule_creates_variables():
    ctx = Context(RATIONAL, variable_cap=16)
    ctx.add_variable("x1")
    ctx.add_variable("x2")
    ctx.add_derivation("d1", shift_prefix="x")
    ctx.freeze()
    d = ctx.derivation("d1")
    u = ctx.var("x1") * ctx.var("x2")
    out = ctx.apply_derivation(d, u)
    assert ctx.has_variable("x3")  # created on demand
    assert out == ctx.var("x2", 2) + ctx.var("x1") * ctx.var("x3")


def test_shift_rule_is_deterministic(shift_ctx):
    ctx = shift_ctx
    d = ctx.derivation("d1")
    once = ctx.apply_derivation(d, ctx.var("x1"))
    twice = ctx.apply_derivation(d, once)
    assert twice == ctx.var("x3")


def test_shift_cap_is_enforced():
    ctx = Context(RATIONAL, variable_cap=4)
    ctx.add_variable("x1")
    ctx.add_derivation("d1", shift_prefix="x")
    ctx.freeze()
    d = ctx.derivation("d1")
    u = ctx.var("x1")
    for _ in range(3):
        u = ctx.apply_derivation(d, u)
    with pytest.raises(VariableCapError):
        ctx.apply_derivation(d, u)


def _shift_context():
    ctx = Context(RATIONAL, variable_cap=16)
    ctx.add_variable("x1")
    ctx.add_derivation("d1", shift_prefix="x")
    return ctx.freeze()


def test_derivation_of_another_context_is_refused(weyl_q, euler_q):
    # A shift rule would silently compute in the wrong context, and explicit
    # images would mix the two contexts' coefficients.
    a, b = _shift_context(), _shift_context()
    with pytest.raises(UsageError, match="not registered in this context"):
        a.apply_derivation(b.derivation("d1"), a.var("x1"))
    for u in (weyl_q.var("t"), weyl_q.one()):
        with pytest.raises(UsageError, match="not registered in this context"):
            weyl_q.apply_derivation(euler_q.derivation("d1"), u)
    assert a.apply_derivation(a.derivation("d1"), a.var("x1")) == a.var("x2")


def test_commuting_checks(weyl_q):
    ctx = Context(RATIONAL)
    ctx.add_variable("t1")
    ctx.add_variable("t2")
    zero = ctx.zero()
    d1 = ctx.add_derivation("d1", images={"t1": ctx.one(), "t2": zero})
    d2 = ctx.add_derivation("d2", images={"t1": zero, "t2": ctx.one()})
    assert ctx.check_commuting(d1, d2)

    bad = Context(RATIONAL)
    bad.add_variable("t")
    usual = bad.add_derivation("d1", images={"t": bad.one()})
    euler = bad.add_derivation("d2", images={"t": bad.var("t")})
    assert not bad.check_commuting(usual, euler)
    with pytest.raises(ValidationError):
        bad.freeze()


def test_mixed_family_commutes(mixed_ctx):
    ders = mixed_ctx.derivations
    for i in range(len(ders)):
        for j in range(i + 1, len(ders)):
            assert mixed_ctx.check_commuting(ders[i], ders[j])


def test_validation_requires_coverage():
    ctx = Context(RATIONAL)
    ctx.add_variable("t")
    ctx.add_variable("u")
    ctx.add_derivation("d1", images={"t": ctx.one()})
    with pytest.raises(ValidationError, match="no image for u"):
        ctx.freeze()


def test_frozen_context_rejects_new_declarations(weyl_q):
    with pytest.raises(UsageError):
        weyl_q.add_variable("fresh")
    with pytest.raises(UsageError):
        weyl_q.add_derivation("d9", images={"t": weyl_q.one()})


def test_duplicate_names_rejected():
    ctx = Context(RATIONAL)
    ctx.add_variable("t")
    with pytest.raises(UsageError):
        ctx.add_variable("t")
    with pytest.raises(UsageError):
        ctx.add_derivation("t", images={})


def test_every_name_clash_has_one_message():
    ctx = Context(RATIONAL)
    ctx.add_variable("x1")
    ctx.add_derivation("d1", shift_prefix="x")
    ctx.add_derivation("x2", images={"x1": ctx.zero()})
    for clash, name in (
        (lambda: ctx.add_variable("x1"), "x1"),
        (lambda: ctx.add_variable("d1"), "d1"),
        (lambda: ctx.add_derivation("x1", images={}), "x1"),
        (lambda: ctx.add_derivation("d1", images={}), "d1"),
        (ctx.freeze, "x2"),  # d1(x1) registers the shift variable x2
    ):
        with pytest.raises(UsageError) as info:
            clash()
        assert str(info.value) == f"name {name!r} already in use"


def test_negative_power_of_polynomial_variable_rejected(weyl_q):
    with pytest.raises(UsageError):
        weyl_q.monomial({"t": -1})


def test_mixed_context_arithmetic_rejected(weyl_q, euler_q):
    with pytest.raises(UsageError):
        weyl_q.var("t") + euler_q.var("t")


def test_leibniz_linearity_commutativity_on_random_elements(mixed_ctx):
    ctx = mixed_ctx
    rng = random.Random("coefficients")
    bounds = SampleBounds()
    for _ in range(60):
        u = random_a(rng, ctx, bounds)
        v = random_a(rng, ctx, bounds)
        for d in ctx.derivations:
            du, dv = ctx.apply_derivation(d, u), ctx.apply_derivation(d, v)
            assert ctx.apply_derivation(d, u * v) == du * v + u * dv
        for i in range(len(ctx.derivations)):
            for j in range(i + 1, len(ctx.derivations)):
                d1, d2 = ctx.derivations[i], ctx.derivations[j]
                assert ctx.apply_derivation(d1, ctx.apply_derivation(d2, u)) == \
                    ctx.apply_derivation(d2, ctx.apply_derivation(d1, u))


def test_mul_is_commutative_associative_with_identity(mixed_ctx):
    ctx = mixed_ctx
    rng = random.Random("ring-axioms")
    bounds = SampleBounds(max_degree=3, max_terms=3)
    for _ in range(40):
        u = random_a(rng, ctx, bounds)
        v = random_a(rng, ctx, bounds)
        w = random_a(rng, ctx, bounds)
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u * ctx.one() == u
        assert ctx.one() * u == u


def test_monomial_and_element_formatting(mixed_ctx):
    ctx = mixed_ctx
    u = ctx.monomial({"t1": 3, "x2": -2})
    (m, _), = u.terms.items()
    assert format_monomial(ctx, m) == "t1^3*x2^-2"
    assert format_a_element(ctx.one()) == "1"
    assert format_a_element(ctx.zero()) == "0"
    # descending graded print order with sign folding
    e = ctx.var("t1", 2) - ctx.one() - ctx.var("x2") * 2
    assert format_a_element(e) == "t1^2 - 2*x2 - 1"


laurent_monomials = st.dictionaries(
    st.integers(min_value=0, max_value=4), st.integers(min_value=-3, max_value=3), max_size=4
).map(Monomial.make)


@given(laurent_monomials, laurent_monomials)
def test_monomial_product_matches_the_make_path(m, n):
    d = dict(m.exps)
    for i, e in n.exps:
        d[i] = d.get(i, 0) + e
    assert m * n == Monomial.make(d)
    assert all(e for _, e in (m * n).exps)


@given(laurent_monomials)
def test_monomial_product_cancels_laurent_exponents_to_one(m):
    inverse = Monomial(tuple((i, -e) for i, e in m.exps))
    assert m * inverse == ONE_MONOMIAL
    assert m * ONE_MONOMIAL == m == ONE_MONOMIAL * m


# Monomial is a hand-written slotted class, hash-consed: equal exponents
# give the one live instance.


@given(laurent_monomials)
def test_equal_exponents_give_equal_monomials(m):
    twin = Monomial(tuple(m.exps))
    assert twin is m
    assert {twin: 1}[m] == 1
    assert m != m.exps


@given(laurent_monomials)
def test_monomial_repr_lists_the_exponents(m):
    assert repr(m) == f"Monomial({dict(m.exps)})"


@given(laurent_monomials)
def test_monomials_are_immutable(m):
    for name in ("exps", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, ())
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m == Monomial(m.exps)


@given(laurent_monomials)
def test_copies_and_pickles_are_the_interned_monomial(m):
    assert copy.copy(m) is m
    assert copy.deepcopy(m) is m
    assert pickle.loads(pickle.dumps(m)) is m


REFCOUNT_SCRIPT = """
import contextlib, gc, io, json, weakref
from weyltype import cli, coefficients
from weyltype.scenario import bundled_scenario_names, bundled_scenario_path

gc.disable()
contexts = []
init = coefficients.Context.__init__

def tracked_init(self, *args, **kwargs):
    init(self, *args, **kwargs)
    contexts.append(weakref.ref(self))

coefficients.Context.__init__ = tracked_init
calls = [["probe", "--scenario", str(bundled_scenario_path(n))] for n in bundled_scenario_names()]
calls += [["verify", "--trials", "3", "--scenario", str(bundled_scenario_path(n))]
          for n in ("mixed_flavors", "shift_family")]
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "contexts": len(contexts),
                  "alive": sum(ref() is not None for ref in contexts)}))
"""


def test_dropped_contexts_are_freed_by_refcounting():
    # With the cyclic collector off, a Context that anything it owns points
    # back at (a cached element, a derivation image) would outlive its call.
    src = str(Path(weyltype.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", REFCOUNT_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result["codes"]) == {0}
    assert result["contexts"] >= len(result["codes"]) == 10
    assert result["alive"] == 0


# -- first derivatives of monomials -------------------------------------------
#
# The reference applies the Leibniz rule the long way: d(m) is the sum over
# the variables x_i of m of e_i * (m / x_i) * d(x_i), each product formed
# by mul_terms with its own product memo.


def _generator_image(ctx, d, i):
    """d(x_i) as raw terms, read off the derivation itself."""
    if i in d.images:
        return d.images[i]
    shifted = ctx.variable(f"{d.shift_prefix}{d.shift_target(ctx.variables[i])}")
    return {Monomial(((shifted.index, 1),)): 1}


def leibniz_reference(ctx, d, m):
    out, p = {}, ctx.spec.p
    for i, e in m.exps:
        c = e if p is None else e % p
        if c:
            rest = Monomial.make({**dict(m.exps), i: e - 1})
            mul_terms(out, {rest: c}, _generator_image(ctx, d, i), {}, p)
    return nonzero(out)


def _monomials(ctx):
    """Monomials over the declared variables, with exponents that vanish
    mod 2 and mod 5 and, for a Laurent variable, negative ones."""
    ranges = [(-5, -1, 0, 1, 2) if var.kind == LAURENT else (0, 1, 2, 5)
              for var in ctx.variables if var.declared]
    for exps in itertools.product(*ranges):
        yield Monomial.make(dict(enumerate(exps)))


def _multi_term_context(spec):
    """d1 = (1 + t^2/2 - 3*t^3)*d/dt on t, is zero on s, and d2 = (s + 3)*d/ds;
    x is Laurent with d1(x) = x^-1 + t*x^2."""
    ctx = Context(spec)
    ctx.add_variable("t")
    ctx.add_variable("s")
    ctx.add_variable("x", LAURENT)
    t, s, x = ctx.var("t"), ctx.var("s"), ctx.var("x")
    half = spec.value(Fraction(1, 2)) if spec.p is None else spec.value(3)
    ctx.add_derivation("d1", images={
        "t": ctx.one() + ctx.var("t", 2) * half - ctx.var("t", 3) * 3,
        "s": ctx.zero(),
        "x": ctx.var("x", -1) + t * ctx.var("x", 2),
    })
    ctx.add_derivation("d2", images={"t": ctx.zero(), "s": s + ctx.one() * 3, "x": ctx.zero()})
    return ctx.freeze()


def _euler_context(spec):
    ctx = Context(spec)
    ctx.add_variable("t")
    ctx.add_variable("x", LAURENT)
    ctx.add_derivation("d1", images={"t": ctx.one(), "x": ctx.var("x")})
    return ctx.freeze()


FIELDS_BY_LABEL = {"Q": RATIONAL, "F_2": FieldSpec("prime", 2), "F_5": FieldSpec("prime", 5)}
DERIVATIVE_CONTEXTS = {name: (lambda name=name: load_bundled(name).ctx) for name in bundled_scenario_names()}
for _label, _spec in FIELDS_BY_LABEL.items():
    DERIVATIVE_CONTEXTS[f"multi_term_{_label}"] = lambda spec=_spec: _multi_term_context(spec)
    DERIVATIVE_CONTEXTS[f"weyl_euler_{_label}"] = lambda spec=_spec: _euler_context(spec)


@pytest.mark.parametrize("name", DERIVATIVE_CONTEXTS)
def test_monomial_derivatives_match_the_leibniz_reference(name):
    ctx = DERIVATIVE_CONTEXTS[name]()
    vanished = 0
    for d in ctx.derivations:
        for m in _monomials(ctx):
            got = ctx._monomial_derivative(d, m)
            expected = leibniz_reference(ctx, d, m)
            assert list(got.items()) == list(expected.items()), (name, d.name, m)
            assert [type(c) for c in got.values()] == [type(c) for c in expected.values()]
            vanished += not got and any(ctx.spec.p and e % ctx.spec.p == 0 for _, e in m.exps)
    if ctx.spec.p in (2, 5):
        assert vanished  # some derivative died because an exponent vanished mod p


@pytest.mark.parametrize("p", [None, 2])
def test_shift_family_registers_lazy_variables_in_order(p):
    # x1 and x5 are declared, so d(x1*x5) reaches x2 and then x6; over F_2
    # both exponents of x1^2*x5^2 vanish, but the targets are still registered.
    ctx = Context(RATIONAL if p is None else FieldSpec("prime", p), variable_cap=16)
    ctx.add_variable("x1")
    ctx.add_variable("x5")
    ctx.add_derivation("d1", shift_prefix="x")
    ctx.freeze()
    d = ctx.derivation("d1")
    e = 1 if p is None else p
    got = ctx._monomial_derivative(d, Monomial(((0, e), (1, e))))
    assert [var.name for var in ctx.variables] == ["x1", "x5", "x2", "x6"]
    assert [var.declared for var in ctx.variables] == [True, True, False, False]
    if p is None:
        assert got == {Monomial(((1, 1), (2, 1))): 1, Monomial(((0, 1), (3, 1))): 1}
    else:
        assert got == {}
    # The next level goes on from the last registered variable.
    ctx._monomial_derivative(d, Monomial(((3, 1),)))
    assert [var.name for var in ctx.variables][4:] == ["x7"]


@pytest.mark.parametrize("label", ["Q", "F_5"])
def test_cold_derivative_merges_once_per_image_term(label, monkeypatch):
    # Each term of d(m) is m + delta: one exponent merge and no product-memo
    # entry per image term, once the images of m's variables are known.
    spec = FIELDS_BY_LABEL[label]
    ctx = _multi_term_context(spec)
    for d in ctx.derivations:
        for var in ctx.variables:
            ctx.apply_derivation(d, ctx.var(var.name))  # resolves every image
    calls = []
    merge = coefficients.merge_exponents
    monkeypatch.setattr(coefficients, "merge_exponents", lambda *a: calls.append(a) or merge(*a))
    products = dict(ctx._products)
    for d in ctx.derivations:
        for m in _monomials(ctx):
            if (d.index, m) in ctx._dcache:
                continue
            calls.clear()
            ctx._monomial_derivative(d, m)
            image_terms = sum(len(_generator_image(ctx, d, i)) for i, e in m.exps
                              if spec.p is None or e % spec.p)
            assert len(calls) == image_terms, (d.name, m)
    assert ctx._products == products
