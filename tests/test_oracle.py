"""The action and the products against sympy, an oracle outside the package.

Each context below is given twice: once as a weyltype Context and once as
sympy derivations sum_i image_i * d/dx_i.  `act` must agree with sympy.diff,
and since the action is an algebra homomorphism, the product and the bracket
must act as the composed sympy operators do.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from weyltype import RATIONAL, Context, w_mul  # noqa: E402
from weyltype.operators import act, lie_bracket  # noqa: E402
from weyltype.checks import SampleBounds, random_a, random_weyl  # noqa: E402
from weyltype.coefficients import LAURENT, POLYNOMIAL  # noqa: E402

# name -> (variables as (name, kind), derivations as (name, {variable: image}))
CONTEXTS = {
    "mixed": (
        [("t1", POLYNOMIAL), ("t2", POLYNOMIAL), ("x2", LAURENT), ("x3", LAURENT)],
        [
            ("d1", {"t1": "1", "t2": "0", "x2": "0", "x3": "0"}),
            ("d2", {"t1": "0", "t2": "1", "x2": "x2", "x3": "0"}),
            ("d3", {"t1": "0", "t2": "0", "x2": "0", "x3": "x3"}),
        ],
    ),
    "weighted": (
        [("t", POLYNOMIAL), ("x", LAURENT)],
        [("d1", {"t": "t**2", "x": "0"}), ("d2", {"t": "0", "x": "x**-1"})],
    ),
    "coupled": (
        [("t", POLYNOMIAL), ("x", LAURENT)],
        [("d1", {"t": "x", "x": "t*x**-1 + 3/2"})],
    ),
}


def to_sympy(u, symbols):
    out = sympy.Integer(0)
    for m, c in u.terms.items():
        term = sympy.Rational(c.value)
        for i, e in m.exps:
            term *= symbols[i] ** e
        out += term
    return out


def to_a(ctx, expr, symbols):
    """A sympy Laurent polynomial in `symbols` as a coefficient element."""
    total = ctx.zero()
    for mono, coeff in sympy.expand(expr).as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        exps = {s.name: int(powers.get(s, 0)) for s in symbols}
        total = total + ctx.monomial({n: e for n, e in exps.items() if e}, coefficient=str(coeff))
    return total


def build(name):
    variables, derivations = CONTEXTS[name]
    ctx = Context(RATIONAL)
    for vname, kind in variables:
        ctx.add_variable(vname, kind)
    symbols = [sympy.Symbol(vname) for vname, _ in variables]
    sym_derivations = []
    for dname, images in derivations:
        exprs = {v: sympy.sympify(img) for v, img in images.items()}
        ctx.add_derivation(dname, images={v: to_a(ctx, e, symbols) for v, e in exprs.items()})
        sym_derivations.append({sympy.Symbol(v): e for v, e in exprs.items()})
    return ctx.freeze(), symbols, sym_derivations


def sympy_operator(x, symbols, sym_derivations):
    """The operator x as a function on sympy expressions."""

    def derive(exprs, f):
        return sum((img * sympy.diff(f, s) for s, img in exprs.items()), sympy.Integer(0))

    def apply(f):
        out = sympy.Integer(0)
        for alpha, u in x.terms.items():
            g = f
            for i, e in alpha.entries:
                for _ in range(e):
                    g = derive(sym_derivations[i], g)
            out += to_sympy(u, symbols) * g
        return out

    return apply


def same(a, b):
    return sympy.expand(a - b) == 0


def samples(name, n):
    ctx, symbols, sym_derivations = build(name)
    rng = random.Random(f"oracle:{name}")
    bounds = SampleBounds(max_degree=2, max_level=2, max_terms=2, n_variables=len(symbols))
    for _ in range(n):
        x = random_weyl(rng, ctx, bounds, nonzero=True)
        y = random_weyl(rng, ctx, bounds, nonzero=True)
        f = random_a(rng, ctx, bounds, nonzero=True)
        yield symbols, sym_derivations, x, y, f


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_act_matches_sympy_diff(name):
    for symbols, sym_derivations, x, _, f in samples(name, 12):
        X = sympy_operator(x, symbols, sym_derivations)
        assert same(to_sympy(act(x, f), symbols), X(to_sympy(f, symbols)))


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_products_act_as_composed_operators(name):
    for symbols, sym_derivations, x, y, f in samples(name, 8):
        X = sympy_operator(x, symbols, sym_derivations)
        Y = sympy_operator(y, symbols, sym_derivations)
        g = to_sympy(f, symbols)
        xy, yx = X(Y(g)), Y(X(g))
        assert same(to_sympy(act(w_mul(x, y), f), symbols), xy)
        assert same(to_sympy(act(lie_bracket(x, y), f), symbols), xy - yx)
