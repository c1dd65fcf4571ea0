import random

import pytest

from weyltype import ExponentCapError, MultiIndex, TermCapError, UsageError, w_mul, wbasis, widentity
from weyltype.coefficients import AElement
from weyltype.multiindex import MINUS_INFINITY
from weyltype import operators
from weyltype.operators import (
    MAX_EXPONENT,
    WeylElement,
    act,
    apply_multi,
    format_weyl,
    leading,
    lie_bracket,
    wderivation,
    wfrom_a,
)
from weyltype.checks import SampleBounds, random_a, random_weyl
from weyltype.parser import evaluate_text

mk = MultiIndex.make


def wzero(ctx) -> WeylElement:
    return WeylElement(ctx, {})


def test_product_of_derivation_and_variable(weyl_q):
    ctx = weyl_q
    d = wderivation(ctx, "d1")
    t = wfrom_a(ctx.var("t"))
    assert w_mul(d, t) == w_mul(t, d) + widentity(ctx)
    assert format_weyl(w_mul(d, t)) == "t*d1 + 1"


def test_coefficient_only_products_multiply_in_a(mixed_ctx):
    ctx = mixed_ctx
    u = ctx.var("t1") + ctx.var("x2", -1)
    v = ctx.var("t2", 2) * 3
    assert w_mul(wfrom_a(u), wfrom_a(v)) == wfrom_a(u * v)


def test_second_order_product(weyl_q):
    ctx = weyl_q
    d = wderivation(ctx, "d1")
    t = wfrom_a(ctx.var("t"))
    d2 = w_mul(d, d)
    expected = w_mul(t, d2) + d.scale(2)  # binomial C(2,1) = 2
    assert w_mul(d2, t) == expected


def test_second_order_product_char2(weyl_f2):
    ctx = weyl_f2
    d = wderivation(ctx, "d1")
    t = wfrom_a(ctx.var("t"))
    assert w_mul(w_mul(d, d), t) == w_mul(t, w_mul(d, d))


def test_bracket_examples(weyl_q):
    ctx = weyl_q
    d = wderivation(ctx, "d1")
    t = wfrom_a(ctx.var("t"))
    assert lie_bracket(d, t) == widentity(ctx)
    x = w_mul(t, d) + wfrom_a(ctx.var("t", 3))
    assert lie_bracket(x, x).is_zero()


def test_euler_operator_eigenvalues(weyl_q):
    ctx = weyl_q
    euler = w_mul(wfrom_a(ctx.var("t")), wderivation(ctx, "d1"))
    for m in range(1, 7):
        tm = wfrom_a(ctx.var("t", m))
        assert lie_bracket(euler, tm) == tm.scale(m)


def test_action_examples(weyl_q):
    ctx = weyl_q
    d = wderivation(ctx, "d1")
    assert act(d, ctx.var("t", 2)) == ctx.var("t") * 2
    op = wbasis(ctx, mk({0: 2}), ctx.var("t"))  # t (x) second derivative
    assert act(op, ctx.var("t", 3)) == ctx.var("t", 2) * 6
    assert act(widentity(ctx), ctx.var("t", 4)) == ctx.var("t", 4)


def test_p_th_derivative_power_kills_polynomials(weyl_f5):
    ctx = weyl_f5
    op = wbasis(ctx, mk({0: 5}))
    for n in range(0, 13):
        assert act(op, ctx.var("t", n)).is_zero()


def test_leading_data(weyl_q):
    ctx = weyl_q
    x = w_mul(wfrom_a(ctx.var("t")), wderivation(ctx, "d1")) + widentity(ctx)
    ld = leading(x)
    assert ld.deg == mk({0: 1})
    assert ld.lev == 1
    assert ld.ld == (mk({0: 1}), ctx.var("t"))

    zero = leading(wzero(ctx))
    assert zero.lev is MINUS_INFINITY
    assert zero.ld is None and zero.deg is None

    const = leading(wfrom_a(ctx.var("t", 2)))
    assert const.deg == mk({})
    assert const.lev == 0


def split_constant(y):
    """Split off the zero-index coefficient: y = y_star + y0."""
    y0 = y.a_part()
    y_star = WeylElement(y.ctx, {a: u for a, u in y.terms.items() if not a.is_zero()})
    return y_star, y0


def test_split_constant(weyl_q):
    ctx = weyl_q
    d = wderivation(ctx, "d1")
    t = wfrom_a(ctx.var("t"))
    y = w_mul(t, d) + wfrom_a(ctx.var("t", 2))
    star, const = split_constant(y)
    assert star == w_mul(t, d)
    assert const == ctx.var("t", 2)

    star, const = split_constant(wfrom_a(ctx.var("t", 3)))
    assert star.is_zero()
    assert const == ctx.var("t", 3)

    # [d^2, t] = 2d: no constant part survives the bracket
    star, const = split_constant(lie_bracket(w_mul(d, d), t))
    assert star == d.scale(2)
    assert const.is_zero()


def test_apply_multi_is_order_independent(mixed_ctx):
    ctx = mixed_ctx
    rng = random.Random("order")
    bounds = SampleBounds(max_degree=3, max_level=3)
    for _ in range(25):
        a = random_a(rng, ctx, bounds)
        gamma = mk({0: 1, 1: 2})
        forward = AElement(ctx, apply_multi(ctx, gamma, a.terms))
        # reversed application order: index 1 twice, then index 0
        d0, d1 = ctx.derivations[0], ctx.derivations[1]
        manual = ctx.apply_derivation(d0, ctx.apply_derivation(d1, ctx.apply_derivation(d1, a)))
        assert forward == manual


def test_mixed_context_products_rejected(weyl_q, euler_q):
    with pytest.raises(UsageError):
        w_mul(widentity(weyl_q), widentity(euler_q))


def sampled_contexts(request_fixtures):
    return request_fixtures


@pytest.mark.parametrize("fixture_name", ["weyl_q", "mixed_ctx", "weyl_f2", "laurent_euler_f5", "shift_ctx"])
def test_associativity_sampled(fixture_name, request):
    ctx = request.getfixturevalue(fixture_name)
    rng = random.Random(f"assoc:{fixture_name}")
    bounds = SampleBounds(max_degree=3, max_level=2, max_terms=2, n_variables=min(3, len(ctx.variables)))
    for _ in range(40):
        x = random_weyl(rng, ctx, bounds)
        y = random_weyl(rng, ctx, bounds)
        z = random_weyl(rng, ctx, bounds)
        assert w_mul(w_mul(x, y), z) == w_mul(x, w_mul(y, z))


@pytest.mark.parametrize("fixture_name", ["weyl_q", "mixed_ctx", "weyl_f2"])
def test_action_homomorphism_sampled(fixture_name, request):
    ctx = request.getfixturevalue(fixture_name)
    rng = random.Random(f"theta:{fixture_name}")
    bounds = SampleBounds(max_degree=3, max_level=2, max_terms=2)
    for _ in range(40):
        x = random_weyl(rng, ctx, bounds)
        y = random_weyl(rng, ctx, bounds)
        a = random_a(rng, ctx, bounds)
        assert act(w_mul(x, y), a) == act(x, act(y, a))


def test_level_and_degree_arithmetic(weyl_q, mixed_ctx):
    for ctx in (weyl_q, mixed_ctx):
        rng = random.Random("levels")
        bounds = SampleBounds(max_degree=3, max_level=2, max_terms=2)
        for _ in range(60):
            x = random_weyl(rng, ctx, bounds, nonzero=True)
            y = random_weyl(rng, ctx, bounds, nonzero=True)
            lx, ly, lp = leading(x), leading(y), leading(w_mul(x, y))
            assert lp.lev == lx.lev + ly.lev
            assert lp.deg == lx.deg.add(ly.deg)
            a = random_a(rng, ctx, bounds)
            assert leading(lie_bracket(x, wfrom_a(a))).lev <= lx.lev - 1


def test_constants_killed_by_derivations_are_central(weyl_f2):
    # in characteristic 2 the even powers are killed by d/dt
    ctx = weyl_f2
    u = wfrom_a(ctx.var("t", 2) + ctx.one())
    rng = random.Random("central")
    bounds = SampleBounds(max_degree=3, max_level=2, max_terms=2)
    for _ in range(30):
        x = random_weyl(rng, ctx, bounds)
        assert lie_bracket(u, x).is_zero()


def test_power_exponent_is_capped(weyl_q):
    d = wderivation(weyl_q, "d1")
    assert d**3 == w_mul(d, w_mul(d, d))
    with pytest.raises(ExponentCapError, match="exceeds the cap"):
        d ** (MAX_EXPONENT + 1)
    with pytest.raises(UsageError, match="negative"):
        d**-1


def test_power_term_count_is_capped(weyl_q, monkeypatch):
    # (t + d1)^88 has 45^2 terms, one power past the cap.
    x = wderivation(weyl_q, "d1") + wfrom_a(weyl_q.var("t"))
    assert sum(len(u.terms) for u in (x**87).terms.values()) == 44 * 45 <= operators.MAX_TERMS
    with pytest.raises(TermCapError, match="product has 2025 terms, above the cap 2000"):
        x**88
    # A result of exactly MAX_TERMS terms passes: (t + 1)^2 has three.
    monkeypatch.setattr(operators, "MAX_TERMS", 3)
    assert format_weyl(wfrom_a(weyl_q.var("t") + weyl_q.one()) ** 2) == "t^2 + 2*t + 1"
    with pytest.raises(TermCapError, match="product has 4 terms, above the cap 3"):
        x**2


def test_term_pairs_are_capped_before_the_product(weyl_q, monkeypatch):
    # (t + d1)^2 has four terms; times t + d1 it walks eight term pairs.
    x = wderivation(weyl_q, "d1") + wfrom_a(weyl_q.var("t"))
    square = x**2
    assert format_weyl(square) == "d1^2 + 2*t*d1 + t^2 + 1"
    monkeypatch.setattr(operators, "MAX_TERM_PAIRS", 4)
    assert x**2 == square  # 1*2 and then 2*2 pairs
    calls = [0]
    original = operators.w_mul

    def counted(a, b):
        calls[0] += 1
        return original(a, b)

    monkeypatch.setattr(operators, "w_mul", counted)
    with pytest.raises(TermCapError, match="product of 4-term and 2-term factors, above the cap 4 term pairs"):
        x**3
    with pytest.raises(TermCapError, match="above the cap 4 term pairs"):
        evaluate_text("(t + d1)^2*(t + d1)", weyl_q)
    # x**3 forms its first two products; neither refusal forms the third.
    assert calls[0] == 2 + 2
