"""The normal-ordering kernel against the plain loop it replaced.

The reference loop below is the textbook product rule: every gamma in the
lower set of alpha, every binomial computed eagerly, every d^gamma(v)
recomputed from scratch by repeated apply_derivation.  The kernel in
operators.py walks gamma lazily, prunes above vanishing derivatives and
memoizes per-monomial derivatives on the context; it must agree with the
loop exactly.
"""

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weyltype import Context, FieldSpec, MultiIndex, RATIONAL, Window, probes, w_mul, wbasis
from weyltype import coefficients, multiindex, operators
from weyltype.coefficients import LAURENT, AElement, Monomial
from weyltype.multiindex import binom_product, lower_set
from weyltype.operators import WeylElement, act, apply_multi, lie_bracket, wfrom_a
from weyltype.checks import SampleBounds, random_a, random_multi_index, random_weyl
from weyltype.parser import evaluate_text
from weyltype.probes import theta_kernel, weyl_coords, weyl_from_coords

mk = MultiIndex.make

CONTEXTS = ["weyl_q", "mixed_ctx", "weyl_f2", "laurent_euler_f5", "shift_ctx"]


def reference_apply_multi(ctx, gamma, a):
    out = a
    for i, e in gamma.entries:
        for _ in range(e):
            out = ctx.apply_derivation(ctx.derivations[i], out)
    return out


def reference_w_mul(x, y):
    ctx = x.ctx
    out = {}
    for alpha, u in x.terms.items():
        for beta, v in y.terms.items():
            for gamma in lower_set(alpha):
                c = binom_product(alpha, gamma, ctx.spec)
                coeff = u * reference_apply_multi(ctx, gamma, v) * c
                idx = alpha.add(beta).sub(gamma)
                out[idx] = out[idx] + coeff if idx in out else coeff
    return WeylElement(ctx, out)


def reference_act(x, a):
    out = x.ctx.zero()
    for alpha, u in x.terms.items():
        out = out + u * reference_apply_multi(x.ctx, alpha, a)
    return out


@pytest.mark.parametrize("fixture_name", CONTEXTS)
def test_kernel_matches_reference_loop(fixture_name, request):
    ctx = request.getfixturevalue(fixture_name)
    rng = random.Random(f"kernel:{fixture_name}")
    bounds = SampleBounds(max_degree=4, max_level=4, max_terms=3, n_variables=min(3, len(ctx.variables)))
    for _ in range(40):
        x = random_weyl(rng, ctx, bounds)
        y = random_weyl(rng, ctx, bounds)
        a = random_a(rng, ctx, bounds)
        gamma = random_multi_index(rng, ctx, bounds)
        assert w_mul(x, y) == reference_w_mul(x, y)
        assert act(x, a) == reference_act(x, a)
        assert AElement(ctx, apply_multi(ctx, gamma, a.terms)) == reference_apply_multi(ctx, gamma, a)


def test_zero_binomial_does_not_prune_deeper_gamma(laurent_euler_f5):
    # d1 = t*d/dt over F_5: C(5, g) = 0 mod 5 for 0 < g < 5, yet the
    # derivatives of t never vanish, so gamma = 5 still contributes.
    ctx = laurent_euler_f5
    d5 = wbasis(ctx, mk({0: 5}))
    t = wfrom_a(ctx.var("t"))
    expected = wbasis(ctx, mk({0: 5}), ctx.var("t")) + t
    assert w_mul(d5, t) == expected
    assert reference_w_mul(d5, t) == expected
    x = wbasis(ctx, mk({0: 7}), ctx.var("t", -1) + ctx.one())
    y = wbasis(ctx, mk({0: 2}), ctx.var("t", 3) * 2 + ctx.var("t"))
    assert w_mul(x, y) == reference_w_mul(x, y)


def test_zero_binomial_in_char_2():
    # C(2, 1) = 0 mod 2 skips gamma = 1, but gamma = 2 is still reached.
    ctx = Context(FieldSpec("prime", 2))
    ctx.add_variable("t", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.var("t")})
    ctx.freeze()
    d2 = wbasis(ctx, mk({0: 2}))
    t = wfrom_a(ctx.var("t"))
    assert w_mul(d2, t) == wbasis(ctx, mk({0: 2}), ctx.var("t")) + t
    assert w_mul(d2, t) == reference_w_mul(d2, t)


def test_memo_keeps_declaration_order_on_unfrozen_context():
    # d1 and d2 do not commute, so the order of application shows.
    ctx = Context(RATIONAL)
    ctx.add_variable("t", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.one()})
    ctx.add_derivation("d2", images={"t": ctx.var("t", 2)})
    a = ctx.var("t", 3) + ctx.var("t")
    gamma = mk({0: 1, 1: 2})
    assert AElement(ctx, apply_multi(ctx, gamma, a.terms)) == reference_apply_multi(ctx, gamma, a)
    x = wbasis(ctx, mk({0: 2, 1: 1}), ctx.var("t"))
    y = wfrom_a(a)
    assert w_mul(x, y) == reference_w_mul(x, y)


def _work_for_power(n, monkeypatch):
    """(apply_derivation calls, apply_multi calls) to evaluate d1^n."""
    ctx = Context(RATIONAL)
    ctx.add_variable("t", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.one()})
    ctx.freeze()
    calls = {"apply_derivation": 0, "apply_multi": 0}
    derive, apply = Context.apply_derivation, operators.apply_multi

    def counted_derive(self, *args):
        calls["apply_derivation"] += 1
        return derive(self, *args)

    def counted_apply(*args):
        calls["apply_multi"] += 1
        return apply(*args)

    monkeypatch.setattr(Context, "apply_derivation", counted_derive)
    monkeypatch.setattr(operators, "apply_multi", counted_apply)
    value = evaluate_text(f"d1^{n}", ctx)
    monkeypatch.undo()
    assert value == wbasis(ctx, mk({0: n}))
    return calls["apply_derivation"], calls["apply_multi"]


def test_power_of_derivation_does_linear_work(monkeypatch):
    # The plain loop visited all k + 1 gammas in the k-th product and applied
    # a derivation for each, so d1^n cost about n^2/2 of both; the pruned,
    # memoized walk visits two gammas a product and derives d1(1) once.
    for n in (400, 3000):
        derivations, gammas = _work_for_power(n, monkeypatch)
        assert derivations <= 2 * n
        assert gammas <= 2 * n


def test_derivative_chain_reuses_the_memo_entry_below(mixed_ctx, monkeypatch):
    # d^gamma(v) is the last derivation of gamma applied to the memoized
    # d^(gamma - e_last)(v), so acting with d1, d1^2, ..., d1^n on one element
    # derives n times, one derivation a call, in either order of the powers.
    ctx = mixed_ctx
    n = 6
    powers = [wbasis(ctx, mk({0: k})) for k in range(1, n + 1)]
    for order in (powers, powers[::-1]):
        elem = ctx.var("t1", n + 2) * ctx.var("x2", -1) + ctx.var("t1", 3)
        expected = [reference_act(x, elem) for x in order]
        gammas = []
        apply = operators.apply_multi

        def counted(context, gamma, terms):
            gammas.append(gamma)
            return apply(context, gamma, terms)

        monkeypatch.setattr(operators, "apply_multi", counted)
        assert [act(x, elem) for x in order] == expected
        monkeypatch.undo()
        assert gammas == [mk({0: 1})] * n


def test_long_derivative_chain_needs_no_deep_recursion(laurent_euler_f5):
    # A miss builds d^alpha(v) up from the nearest memoized gamma in a loop,
    # so |alpha| is bounded by the exponent cap, not the recursion limit.
    ctx = laurent_euler_f5
    n = sys.getrecursionlimit() + 10
    assert act(wbasis(ctx, mk({0: n})), ctx.var("t", 2)) == ctx.var("t", 2) * pow(2, n, 5)


def test_derivative_cache_holds_first_derivatives_only(mixed_ctx):
    # Higher derivatives live on the elements, so the context caches d(m)
    # alone, keyed by the derivation's index.
    ctx = mixed_ctx
    x = evaluate_text("t1*d1^2*d2 + x2*d2^2*d3 + t2", ctx)
    y = evaluate_text("t1^2*x2*d2 + x3^2*t2*d1^2*d3 + t1^3", ctx)
    a = ctx.var("t1", 3) * ctx.var("x2", 2) + ctx.var("t2", 2) * ctx.var("x3", -1)
    w_mul(x, y)
    act(x * y, a)
    assert ctx._dcache
    for i, m in ctx._dcache:
        assert type(i) is int and 0 <= i < len(ctx.derivations)
        assert type(m) is Monomial


# The bracket is accumulated in one pass without its gamma = 0 terms, which
# cancel because the coefficient algebra is commutative.  The oracle is the
# difference of two products of the plain loop above.


@pytest.mark.parametrize("fixture_name", CONTEXTS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rng=st.randoms(use_true_random=False))
def test_bracket_is_difference_of_products(fixture_name, request, rng):
    ctx = request.getfixturevalue(fixture_name)
    bounds = SampleBounds(max_degree=3, max_level=3, max_terms=3, n_variables=min(3, len(ctx.variables)))
    x = random_weyl(rng, ctx, bounds)
    y = random_weyl(rng, ctx, bounds)
    bracket = lie_bracket(x, y)
    assert bracket == reference_w_mul(x, y) - reference_w_mul(y, x)
    assert bracket == w_mul(x, y) - w_mul(y, x)
    assert lie_bracket(y, x) == -bracket


def _shift_context():
    ctx = Context(RATIONAL, variable_cap=16)
    for name in ("x1", "x2", "x3"):
        ctx.add_variable(name, "polynomial")
    ctx.add_derivation("d1", shift_prefix="x")
    return ctx.freeze()


def test_bracket_creates_shift_variables_in_product_order():
    # x*y runs before y*x, so lazily created variables appear in the order
    # the two products would create them.
    rng = random.Random("bracket:shift")
    bounds = SampleBounds(max_degree=2, max_level=3, max_terms=3, n_variables=3)
    for _ in range(20):
        fused, plain = _shift_context(), _shift_context()
        state = rng.getstate()
        x, y = random_weyl(rng, fused, bounds), random_weyl(rng, fused, bounds)
        rng.setstate(state)
        px, py = random_weyl(rng, plain, bounds), random_weyl(rng, plain, bounds)
        lie_bracket(x, y)
        w_mul(px, py) - w_mul(py, px)
        assert [v.name for v in fused.variables] == [v.name for v in plain.variables]


def test_bracket_of_coefficients_multiplies_no_monomials(mixed_ctx, monkeypatch):
    # [u, v] = 0 for coefficient-only u, v, and every term of it is gamma = 0;
    # subtracting two full products costs 2*|u|*|v| monomial products.
    ctx = mixed_ctx
    u = wfrom_a(ctx.var("t1") + ctx.var("x2", -1) * 3 + ctx.var("t2", 2))
    v = wfrom_a(ctx.var("x3") * ctx.var("t1") + ctx.one())
    d = wbasis(ctx, mk({0: 1, 2: 2}), ctx.var("x3"))
    expected = reference_w_mul(d, u) - reference_w_mul(u, d)
    calls = {"Monomial.__mul__": 0, "w_mul": 0}
    original_mul = Monomial.__mul__

    def counted_mul(self, other):
        calls["Monomial.__mul__"] += 1
        return original_mul(self, other)

    def counted_w_mul(x, y):
        calls["w_mul"] += 1
        return w_mul(x, y)

    monkeypatch.setattr(Monomial, "__mul__", counted_mul)
    monkeypatch.setattr("weyltype.operators.w_mul", counted_w_mul)
    assert lie_bracket(u, v).is_zero()
    assert calls["Monomial.__mul__"] == 0
    assert lie_bracket(d, u) == expected
    assert calls["w_mul"] == 0


# A window guard lets a bracket stop at its first finished level that leaves
# the window.  A bracket that fits the window must come back whole, and one
# that does not as None, so a guarded step is discarded exactly when the
# full bracket would be.


def _random_window(rng, ctx):
    bounds = {}
    for var in ctx.variables:
        lo = -rng.randint(0, 2) if var.kind == LAURENT else 0
        bounds[var.name] = (lo, rng.randint(0, 3))
    return Window.for_context(ctx, bounds, max_level=rng.randint(0, 3), basis_cap=20_000)


@pytest.mark.parametrize("fixture_name", CONTEXTS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rng=st.randoms(use_true_random=False))
def test_guarded_products_agree_with_the_window(fixture_name, request, rng):
    ctx = request.getfixturevalue(fixture_name)
    window = _random_window(rng, ctx)
    index = {lab: j for j, lab in enumerate(window.ad_basis(ctx))}
    guard = window.guard(ctx)
    bounds = SampleBounds(max_degree=2, max_level=2, max_terms=3, n_variables=min(3, len(ctx.variables)))
    x = random_weyl(rng, ctx, bounds)
    y = random_weyl(rng, ctx, bounds)
    full = lie_bracket(x, y)
    guarded = lie_bracket(x, y, guard)
    if weyl_coords(full, index) is None:
        assert guarded is None
    else:
        assert guarded == full


def test_guard_skips_terms_that_cancel(weyl_q):
    # In [d1 + t, 6*t^5*d1 + 15*t^4*d1^2 + t^6] the level-1 terms
    # 30*t^4*d1 and the level-0 terms 6*t^5 cancel, though t^4 and t^5 leave
    # the window; level 2 fits it, and the walk must go on to level 0.
    ctx = weyl_q
    window = Window.for_context(ctx, {"t": (0, 3)}, max_level=2)
    x = evaluate_text("d1 + t", ctx)
    y = evaluate_text("6*t^5*d1 + 15*t^4*d1^2 + t^6", ctx)
    assert lie_bracket(x, y) == evaluate_text("60*t^3*d1^2", ctx)
    assert lie_bracket(x, y, window.guard(ctx)) == evaluate_text("60*t^3*d1^2", ctx)
    assert lie_bracket(x, y + evaluate_text("t^5", ctx), window.guard(ctx)) is None


# Sums are accumulated as raw terms and wrapped once, so each of these builds
# at most one AElement per output coefficient.


def _count_aelements(monkeypatch):
    count = [0]
    init = AElement.__init__

    def counted(self, ctx, terms):
        count[0] += 1
        init(self, ctx, terms)

    monkeypatch.setattr(AElement, "__init__", counted)
    return count


def test_act_builds_one_coefficient(mixed_ctx, monkeypatch):
    ctx = mixed_ctx
    u = ctx.var("t1") + ctx.var("x2", -1) * 3
    x = WeylElement(ctx, {mk({0: i, 1: j}): u for i in range(6) for j in range(5)})
    a = ctx.var("t1", 4) * ctx.var("t2", 3) + ctx.var("x2", 2)
    expected = reference_act(x, a)
    count = _count_aelements(monkeypatch)
    assert act(x, a) == expected
    assert len(x.terms) == 30 and count[0] == 1


def test_weyl_from_coords_builds_one_coefficient_per_index(mixed_ctx, monkeypatch):
    ctx = mixed_ctx
    window = Window.for_context(ctx, {"t1": (0, 4), "t2": (0, 4), "x2": (-3, 4), "x3": (0, 0)}, 0)
    labels = [(mk({}), m) for m in window.a_basis(ctx)]
    vec = {j: j + 1 for j in range(len(labels))}
    count = _count_aelements(monkeypatch)
    x = weyl_from_coords(ctx, labels, vec)
    assert len(vec) == 200 and count[0] == 1
    assert len(x.a_part().terms) == 200


def test_theta_kernel_witness_builds_one_coefficient_per_index(monkeypatch):
    # d2 = (s + s^2)*d/dt acts as (s + s^2)*d1, so d2 - (s + s^2)*d1 kills A
    # and its kernel vector has two entries at the index d1.
    ctx = Context(RATIONAL)
    ctx.add_variable("t")
    ctx.add_variable("s")
    ctx.add_derivation("d1", images={"t": ctx.one(), "s": ctx.zero()})
    ctx.add_derivation("d2", images={"t": ctx.var("s") + ctx.var("s", 2), "s": ctx.zero()})
    ctx.freeze()
    window = Window.for_context(ctx, {"t": (0, 1), "s": (0, 2)}, max_level=1)
    counters = []
    kernel = probes.nullspace

    def count_from_here(*args):
        out = kernel(*args)
        counters.append(_count_aelements(monkeypatch))
        return out

    monkeypatch.setattr(probes, "nullspace", count_from_here)
    verdict = theta_kernel(ctx, window)
    monkeypatch.undo()
    assert [str(x) for x in verdict.witness] == ["d2 + (-s^2 - s)*d1", "t*d2 + (-t*s^2 - t*s)*d1"]
    assert 0 < counters[0][0] <= sum(len(x.terms) for x in verdict.witness)


# Each context caches the walk's index arithmetic: a gamma tree per alpha,
# whose children are built on first visit, and the output indices
# beta + (alpha - gamma).


def _count_multi_indices(monkeypatch):
    """Count the misses of the MultiIndex intern table: the new indices built."""
    count = [0]
    intern = multiindex.intern

    def counted(table, *args):
        count[0] += table is multiindex._INDICES
        return intern(table, *args)

    monkeypatch.setattr(multiindex, "intern", counted)
    return count


@pytest.mark.parametrize("product", [w_mul, lie_bracket])
def test_repeated_products_build_no_new_indices(mixed_ctx, monkeypatch, product):
    ctx = mixed_ctx
    x = evaluate_text("t1*d1^2*d2 + x2*d3 + t2", ctx)
    y = evaluate_text("t1^2*x2*d2 + x3^2*t2*d1^2 + t1", ctx)
    count = _count_multi_indices(monkeypatch)
    first = product(x, y)
    built = count[0]
    assert product(x, y) == first
    assert built > 0 and count[0] == built


def test_vanishing_binomial_skips_its_term_in_a_cached_tree():
    # d1 = t*d/dt over F_2: C(2, 1) = 0 skips gamma = 1, yet d1^2(t) = t, so
    # gamma = 2 contributes, also when the second round reads the cached tree.
    ctx = Context(FieldSpec("prime", 2))
    ctx.add_variable("t", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.var("t")})
    ctx.freeze()
    d2, t = wbasis(ctx, mk({0: 2})), wfrom_a(ctx.var("t"))
    for _ in range(2):
        assert w_mul(d2, t) == evaluate_text("t*d1^2 + t", ctx)
        assert lie_bracket(d2, t) == lie_bracket(t, d2) == evaluate_text("t", ctx)
    (middle,) = ctx._gamma_trees[mk({0: 2})].children
    assert middle.c is None and middle.neg_c is None and middle.children


def test_gamma_trees_are_per_context():
    # C(5, g) for 0 < g < 5 is nonzero over Q and zero over F_5, so a binomial
    # cached by one context must not serve the other.
    alpha = mk({0: 5})
    firsts = []
    for spec in (RATIONAL, FieldSpec("prime", 5)):
        ctx = Context(spec)
        ctx.add_variable("t", "polynomial")
        ctx.add_derivation("d1", images={"t": ctx.one()})
        ctx.freeze()
        x, y = wbasis(ctx, alpha), wfrom_a(ctx.var("t", 5))
        assert w_mul(x, y) == reference_w_mul(x, y)
        assert lie_bracket(x, y) == reference_w_mul(x, y) - reference_w_mul(y, x)
        firsts.append(ctx._gamma_trees[alpha].children[0])
    assert firsts[0].c == 5 and firsts[1].c is None


def test_pruned_gamma_subtrees_are_never_built(weyl_q):
    # d1^k(t) = 0 for k >= 2, so d1^400 * t visits gamma = 0, 1, 2 only and
    # leaves the node at gamma = 2 without children.
    alpha = mk({0: 400})
    w_mul(wbasis(weyl_q, alpha), wfrom_a(weyl_q.var("t")))
    node, depth = weyl_q._gamma_trees[alpha], 0
    while node.children is not None:
        (node,) = node.children
        depth += 1
    assert depth == 2 and node.gamma == mk({0: 2})


# Each context memoizes its monomial products, and each coefficient element
# the raw terms of its derivatives d^gamma(v), so a repeated product or
# action redoes no coefficient work.


def _count_coefficient_work(monkeypatch):
    """Counters of merge_exponents calls (monomial and index sums) and of
    apply_multi calls, while the monkeypatch lasts."""
    calls = {"merge_exponents": 0, "apply_multi": 0}
    merge, apply = multiindex.merge_exponents, operators.apply_multi

    def counted_merge(*args):
        calls["merge_exponents"] += 1
        return merge(*args)

    def counted_apply(*args):
        calls["apply_multi"] += 1
        return apply(*args)

    monkeypatch.setattr(multiindex, "merge_exponents", counted_merge)
    monkeypatch.setattr(coefficients, "merge_exponents", counted_merge)
    monkeypatch.setattr(operators, "apply_multi", counted_apply)
    return calls


@pytest.mark.parametrize("product", [w_mul, lie_bracket])
def test_repeated_products_redo_no_coefficient_work(mixed_ctx, monkeypatch, product):
    ctx = mixed_ctx
    x = evaluate_text("t1*d1^2*d2 + x2*d3 + t2", ctx)
    y = evaluate_text("t1^2*x2*d2 + x3^2*t2*d1^2 + t1", ctx)
    calls = _count_coefficient_work(monkeypatch)
    first = product(x, y)
    assert calls["merge_exponents"] > 0 and calls["apply_multi"] > 0
    calls.update(merge_exponents=0, apply_multi=0)
    assert product(x, y) == first
    assert calls == {"merge_exponents": 0, "apply_multi": 0}


def test_action_block_derives_once_per_alpha(mixed_ctx, monkeypatch):
    # theta_kernel acts with every column on one element; the columns share
    # their alphas, so each d^alpha(elem) is summed once.
    ctx = mixed_ctx
    alphas = [mk({}), mk({0: 1}), mk({1: 2}), mk({0: 1, 2: 1})]
    coeffs = [ctx.one(), ctx.var("t1"), ctx.var("x2", -1) * 3 + ctx.var("t2")]
    columns = [wbasis(ctx, alpha, u) for alpha in alphas for u in coeffs]
    elem = ctx.var("t1", 3) * ctx.var("x2", 2) + ctx.var("t2", 2) * ctx.var("x3")
    expected = [reference_act(b, elem) for b in columns]
    calls = _count_coefficient_work(monkeypatch)
    assert [act(b, elem) for b in columns] == expected
    assert calls["apply_multi"] == len(alphas) < len(columns)


def _memo_context(spec):
    ctx = Context(spec)
    ctx.add_variable("t1", "polynomial")
    ctx.add_variable("t2", "polynomial")
    ctx.add_variable("x", "laurent")
    zero = ctx.zero()
    ctx.add_derivation("d1", images={"t1": ctx.one(), "t2": zero, "x": zero})
    ctx.add_derivation("d2", images={"t1": zero, "t2": ctx.var("t2"), "x": ctx.var("x")})
    return ctx.freeze()


def _memo_ops(x, y, a):
    return [w_mul(x, y), lie_bracket(x, y), w_mul(y, x), act(x, a), act(y, a)]


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from([RATIONAL, FieldSpec("prime", 5)]), seed=st.integers(0, 2**32 - 1))
def test_warm_memos_give_what_a_fresh_context_gives(spec, seed):
    bounds = SampleBounds(max_degree=3, max_level=3, max_terms=3)
    rng = random.Random(seed)
    warm = _memo_context(spec)
    z = random_weyl(rng, warm, bounds)
    state = rng.getstate()
    x, y, a = random_weyl(rng, warm, bounds), random_weyl(rng, warm, bounds), random_a(rng, warm, bounds)
    # Warm the memos with products that share operands with the ones below.
    _memo_ops(z, x, a)
    _memo_ops(y, z, a)
    first = [str(r) for r in _memo_ops(x, y, a)]
    assert [str(r) for r in _memo_ops(x, y, a)] == first
    fresh = _memo_context(spec)
    rng.setstate(state)
    fx, fy, fa = random_weyl(rng, fresh, bounds), random_weyl(rng, fresh, bounds), random_a(rng, fresh, bounds)
    assert str(fx) == str(x) and str(fy) == str(y) and str(fa) == str(a)
    assert [str(r) for r in _memo_ops(fx, fy, fa)] == first
    # act(x, a) memoizes d^alpha(a) for every alpha of x, alpha = 0 included.
    assert all(alpha in (a._partials or {}) for alpha in x.terms)
    if x and y:
        assert warm._products and next(iter(y.terms.values()))._partials is not None


def test_memos_shared_by_threads_give_single_threaded_results():
    # Threads that share a context and its elements may race on a memo miss;
    # each racer stores an equal value, so the results must not change.
    bounds = SampleBounds(max_degree=3, max_level=3, max_terms=3)
    results = {}
    for name, workers in (("alone", 1), ("shared", 4)):
        rng = random.Random("memo-threads")
        ctx = _memo_context(RATIONAL)
        elems = [random_weyl(rng, ctx, bounds, nonzero=True) for _ in range(4)]
        a = random_a(rng, ctx, bounds, nonzero=True)
        start = threading.Barrier(workers)
        out = [None] * workers

        def run(slot):
            start.wait()
            out[slot] = [str(r) for x in elems for y in elems for r in _memo_ops(x, y, a)]

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        results[name] = out
    assert results["shared"] == results["alone"] * 4
