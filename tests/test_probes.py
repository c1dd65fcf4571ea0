from fractions import Fraction

import pytest

from weyltype import (
    BasisCapError,
    Context,
    FieldSpec,
    MultiIndex,
    RATIONAL,
    UsageError,
    ValidationError,
    WindowError,
    Window,
    act,
    assoc_ideal_closure_probe,
    compute_f1,
    d_simplicity_probe,
    equal_mod_f1,
    evaluate_text,
    lie_bracket,
    lie_ideal_closure_probe,
    p_power_derivation,
    theta_kernel,
    w_mul,
    wbasis,
    wderivation,
    wfrom_a,
    widentity,
    wronskian_witness,
)
from weyltype import probes
from weyltype.linalg import RowReducer
from weyltype.operators import format_weyl
from weyltype.probes import (
    KERNEL_NONZERO,
    KERNEL_ZERO,
    PROPER_INVARIANT_SUBSPACE,
    REACHES_IDENTITY,
    FULL_SPAN_MOD_F1,
    a_coords,
    a_from_coords,
    weyl_coords,
)
from weyltype.scenario import load_bundled

mk = MultiIndex.make


def f1_strings(ctx, basis):
    return [str(a_from_coords(ctx, basis.labels, vec)) for vec in basis.vectors()]


def span_contains_weyl(ctx, window, elements, target) -> bool:
    index = {lab: j for j, lab in enumerate(window.ad_basis(ctx))}
    red = RowReducer(ctx.spec)
    for e in elements:
        vec = weyl_coords(e, index)
        assert vec is not None
        red.add(vec)
    tvec = weyl_coords(target, index)
    assert tvec is not None
    return red.contains(tvec)


# -- windows -------------------------------------------------------------------


def test_window_validation(weyl_q, laurent_euler_q):
    with pytest.raises(ValidationError, match="lower bound 0"):
        Window.for_context(weyl_q, {"t": (-1, 4)}, max_level=2)
    with pytest.raises(ValidationError, match="no bounds"):
        Window.for_context(weyl_q, {}, max_level=2)
    with pytest.raises(ValidationError, match="unknown variable"):
        Window.for_context(weyl_q, {"t": (0, 4), "zz": (0, 1)}, max_level=2)
    with pytest.raises(ValidationError, match="lower bound <= 0"):
        Window.for_context(laurent_euler_q, {"t": (1, 4)}, max_level=2)


def test_window_enumeration(weyl_q):
    w = Window.for_context(weyl_q, {"t": (0, 3)}, max_level=2)
    basis = w.a_basis(weyl_q)
    assert [str(wfrom_a(a_from_coords(weyl_q, basis, {j: RATIONAL.one()}))) for j in range(4)] == [
        "1", "t", "t^2", "t^3"
    ]
    multis = w.multi_indices(weyl_q)
    assert multis == [mk({}), mk({0: 1}), mk({0: 2})]
    assert len(w.ad_basis(weyl_q)) == 12


def test_window_cap(weyl_q):
    w = Window.for_context(weyl_q, {"t": (0, 100)}, max_level=3, basis_cap=50)
    with pytest.raises(BasisCapError):
        w.a_basis(weyl_q)


def test_window_interior(laurent_euler_q):
    w = Window.for_context(laurent_euler_q, {"t": (-5, 6)}, max_level=3)
    inner = w.interior(Fraction(1, 2))
    assert inner.bound_for(0) == (-2, 3)
    assert inner.max_level == 1
    assert w.interior(Fraction(0)) == w


# -- joint derivation kernel -----------------------------------------------------


def test_f1_polynomial_rational(weyl_q):
    w = Window.for_context(weyl_q, {"t": (0, 10)}, max_level=3)
    basis = compute_f1(weyl_q, w)
    assert f1_strings(weyl_q, basis) == ["1"]


def test_f1_char5_polynomial(weyl_f5):
    w = Window.for_context(weyl_f5, {"t": (0, 12)}, max_level=2)
    basis = compute_f1(weyl_f5, w)
    assert f1_strings(weyl_f5, basis) == ["1", "t^5", "t^10"]


def test_f1_laurent_euler(laurent_euler_q):
    w = Window.for_context(laurent_euler_q, {"t": (-5, 5)}, max_level=2)
    basis = compute_f1(laurent_euler_q, w)
    assert f1_strings(laurent_euler_q, basis) == ["1"]


def test_f1_elements_are_killed_and_central(weyl_f5):
    ctx = weyl_f5
    w = Window.for_context(ctx, {"t": (0, 12)}, max_level=2)
    basis = compute_f1(ctx, w)
    elements = [a_from_coords(ctx, basis.labels, vec) for vec in basis.vectors()]
    for u in elements:
        for d in ctx.derivations:
            assert ctx.apply_derivation(d, u).is_zero()
    # central in the bracket against window operator monomials
    for u in elements:
        for alpha, m in w.ad_basis(ctx):
            x = wbasis(ctx, alpha, a_from_coords(ctx, [m], {0: ctx.spec.one()}))
            assert lie_bracket(wfrom_a(u), x).is_zero()


def test_f1_multiplicative_closure_inside_window(weyl_f5):
    ctx = weyl_f5
    w = Window.for_context(ctx, {"t": (0, 12)}, max_level=2)
    basis = compute_f1(ctx, w)
    elements = [a_from_coords(ctx, basis.labels, vec) for vec in basis.vectors()]
    index = {m: j for j, m in enumerate(basis.labels)}
    for u in elements:
        for v in elements:
            vec = a_coords(u * v, index)
            if vec is None:
                continue  # product escapes the window; not window-checkable
            assert basis.contains(vec)


def test_equal_mod_f1(weyl_q):
    ctx = weyl_q
    w = Window.for_context(ctx, {"t": (0, 10)}, max_level=3)
    f1 = compute_f1(ctx, w)
    x = evaluate_text("t*d1 + 1", ctx)
    y = evaluate_text("t*d1", ctx)
    assert equal_mod_f1(x, x, f1)
    assert equal_mod_f1(x, y, f1)  # difference 1 lies in the kernel
    assert not equal_mod_f1(x + wfrom_a(ctx.var("t")), x, f1)
    assert not equal_mod_f1(x + wderivation(ctx, "d1"), x, f1)
    with pytest.raises(WindowError):
        equal_mod_f1(x + wfrom_a(ctx.var("t", 11)), x, f1)


# -- faithfulness ---------------------------------------------------------------


def test_theta_kernel_zero_for_rational_weyl(weyl_q):
    w = Window.for_context(weyl_q, {"t": (0, 8)}, max_level=4)
    verdict = theta_kernel(weyl_q, w)
    assert verdict.kind == KERNEL_ZERO
    assert verdict.note == "window-restricted evidence"
    assert verdict.witness == []


def test_theta_kernel_char2(weyl_f2):
    ctx = weyl_f2
    w = Window.for_context(ctx, {"t": (0, 6)}, max_level=2)
    verdict = theta_kernel(ctx, w)
    assert verdict.kind == KERNEL_NONZERO
    dd = evaluate_text("d1^2", ctx)
    assert span_contains_weyl(ctx, w, verdict.witness, dd)
    # kernel witnesses act as zero on every window monomial, exactly
    for k in verdict.witness:
        for m in w.a_basis(ctx):
            assert act(k, a_from_coords(ctx, [m], {0: ctx.spec.one()})).is_zero()


def test_theta_kernel_char5_fermat(laurent_euler_f5):
    ctx = laurent_euler_f5
    w = Window.for_context(ctx, {"t": (-5, 5)}, max_level=5)
    verdict = theta_kernel(ctx, w)
    assert verdict.kind == KERNEL_NONZERO
    fermat = evaluate_text("d1^5 - d1", ctx)
    assert span_contains_weyl(ctx, w, verdict.witness, fermat)


def test_theta_kernel_restricted_variant(weyl_f2):
    ctx = weyl_f2
    w = Window.for_context(ctx, {"t": (0, 6)}, max_level=2)
    restricted = theta_kernel(ctx, w, restrict_to_f1=True)
    assert restricted.kind == KERNEL_NONZERO
    full = theta_kernel(ctx, w)
    # the restricted kernel embeds in the full one
    index = {lab: j for j, lab in enumerate(w.ad_basis(ctx))}
    red = RowReducer(ctx.spec)
    for e in full.witness:
        red.add(weyl_coords(e, index))
    for e in restricted.witness:
        assert red.contains(weyl_coords(e, index))


def test_theta_kernel_stops_acting_at_full_rank(shift_ctx, monkeypatch):
    # The widened shift-family window: 256 operator columns, 64 monomials.
    # The constraint rows reach full rank within the first three monomials,
    # so acting on all 64 (16,384 calls) would be wasted work.
    calls = []

    def counted_act(x, a):
        calls.append(1)
        return act(x, a)

    monkeypatch.setattr(probes, "act", counted_act)
    bounds = {name: (0, 3) for name in ("x1", "x2", "x3")}
    w = Window.for_context(shift_ctx, bounds, max_level=3)
    verdict = theta_kernel(shift_ctx, w)
    assert verdict.kind == KERNEL_ZERO
    assert verdict.coverage == 1
    assert len(calls) <= 1000


@pytest.mark.parametrize("restrict", [False, True])
def test_theta_kernel_nonzero_witnesses_unchanged(restrict):
    # A nonzero kernel consumes every constraint row; the witnesses are the
    # ones the eager, all-rows construction produced.
    scenario = load_bundled("char2_poly")
    verdict = theta_kernel(scenario.ctx, scenario.window, restrict_to_f1=restrict)
    powers = range(0, 7, 2) if restrict else range(7)
    expected = ["d1^2"] + [("t" if k == 1 else f"t^{k}") + "*d1^2" for k in powers if k]
    assert verdict.kind == KERNEL_NONZERO
    assert verdict.coverage == Fraction(2, 3)
    assert [format_weyl(x) for x in verdict.witness] == expected


def test_theta_kernel_saturates_before_the_variable_cap():
    # Acting with d1^2 on x3 needs x5, which a cap of 4 variables forbids;
    # the rows reach full rank before any such monomial is acted on, so the
    # probe now certifies an empty kernel instead of raising VariableCapError.
    ctx = Context(RATIONAL, variable_cap=4)
    for name in ("x1", "x2", "x3"):
        ctx.add_variable(name, "polynomial")
    ctx.add_derivation("d1", shift_prefix="x")
    ctx.freeze()
    w = Window.for_context(ctx, {name: (0, 2) for name in ("x1", "x2", "x3")}, max_level=2)
    verdict = theta_kernel(ctx, w)
    assert verdict.kind == KERNEL_ZERO
    assert verdict.coverage == 1


# -- ideal closures ---------------------------------------------------------------


def test_d_simplicity_usual_derivative(weyl_q):
    w = Window.for_context(weyl_q, {"t": (0, 6)}, max_level=3)
    verdict = d_simplicity_probe(weyl_q, weyl_q.var("t"), w)
    assert verdict.kind == REACHES_IDENTITY


def test_d_simplicity_euler_control(euler_q):
    ctx = euler_q
    w = Window.for_context(ctx, {"t": (0, 6)}, max_level=3)
    verdict = d_simplicity_probe(ctx, ctx.var("t"), w)
    assert verdict.kind == PROPER_INVARIANT_SUBSPACE
    assert verdict.coverage == Fraction(6, 7)
    for u in verdict.witness:
        for m, _ in u.terms.items():
            assert m.exponent(0) >= 1  # everything stays divisible by t


def test_d_simplicity_laurent_euler(laurent_euler_q):
    ctx = laurent_euler_q
    w = Window.for_context(ctx, {"t": (-5, 5)}, max_level=3)
    verdict = d_simplicity_probe(ctx, ctx.var("t"), w)
    assert verdict.kind == REACHES_IDENTITY


def test_d_simplicity_rejects_bad_seeds(weyl_q):
    w = Window.for_context(weyl_q, {"t": (0, 6)}, max_level=3)
    with pytest.raises(UsageError):
        d_simplicity_probe(weyl_q, weyl_q.zero(), w)
    with pytest.raises(UsageError):
        d_simplicity_probe(weyl_q, weyl_q.var("t", 7), w)


def test_lie_closure_weyl_case(weyl_q):
    ctx = weyl_q
    w = Window.for_context(ctx, {"t": (0, 6)}, max_level=3)
    f1 = compute_f1(ctx, w)
    seed = evaluate_text("t*d1", ctx)
    verdict = lie_ideal_closure_probe(ctx, seed, w, f1, Fraction(1, 2))
    assert verdict.kind == FULL_SPAN_MOD_F1
    assert verdict.coverage == Fraction(1)
    assert verdict.unreached == []


def test_lie_closure_euler_control(euler_q):
    ctx = euler_q
    w = Window.for_context(ctx, {"t": (0, 6)}, max_level=3)
    f1 = compute_f1(ctx, w)
    seed = evaluate_text("t^2*d1", ctx)
    verdict = lie_ideal_closure_probe(ctx, seed, w, f1, Fraction(1, 2))
    assert verdict.kind == PROPER_INVARIANT_SUBSPACE
    assert verdict.coverage < 1
    assert verdict.unreached
    for x in verdict.witness:
        for _, u in x.terms.items():
            for m, _ in u.terms.items():
                assert m.exponent(0) >= 1


def test_lie_closure_rejects_central_seed(weyl_q):
    ctx = weyl_q
    w = Window.for_context(ctx, {"t": (0, 6)}, max_level=3)
    f1 = compute_f1(ctx, w)
    with pytest.raises(UsageError, match="central"):
        lie_ideal_closure_probe(ctx, widentity(ctx), w, f1)


def test_assoc_closure_weyl_seeds(weyl_q):
    ctx = weyl_q
    w = Window.for_context(ctx, {"t": (0, 6)}, max_level=3)
    for text in ("d1", "t^2", "t*d1"):
        verdict = assoc_ideal_closure_probe(ctx, evaluate_text(text, ctx), w)
        assert verdict.kind == REACHES_IDENTITY, text


def test_assoc_closure_char2_kernel_seed_stalls(weyl_f2):
    # A derivation square is central in characteristic 2, so its two-sided
    # ideal keeps every term at derivation level >= 2; regression value
    # computed by this closure itself.
    ctx = weyl_f2
    w = Window.for_context(ctx, {"t": (0, 6)}, max_level=2)
    verdict = assoc_ideal_closure_probe(ctx, evaluate_text("d1^2", ctx), w)
    assert verdict.kind == PROPER_INVARIANT_SUBSPACE
    assert verdict.coverage == Fraction(1, 3)
    for x in verdict.witness:
        for alpha in x.terms:
            assert alpha.level() >= 2


def test_assoc_closure_euler_control_divisibility(euler_q):
    ctx = euler_q
    w = Window.for_context(ctx, {"t": (0, 6)}, max_level=3)
    verdict = assoc_ideal_closure_probe(ctx, wfrom_a(ctx.var("t")), w)
    assert verdict.kind == PROPER_INVARIANT_SUBSPACE
    for x in verdict.witness:
        for _, u in x.terms.items():
            for m, _ in u.terms.items():
                assert m.exponent(0) >= 1


# -- soundness of discard semantics ------------------------------------------------


def replay_closure(ctx, window, seed, verdict, bracket=False):
    """Re-run every recorded closure step without truncation and confirm the
    recorded element: nothing in the span was fabricated by the window."""
    elements = [seed]
    for step in verdict.steps:
        parent = elements[step.parent]
        if step.op == "mul":
            z = parent * evaluate_text(step.generator, ctx).a_part()
        elif step.op == "derive":
            z = ctx.apply_derivation(ctx.derivation(step.generator), parent)
        elif step.op == "lmul":
            z = w_mul(evaluate_text(step.generator, ctx), parent)
        elif step.op == "rmul":
            z = w_mul(parent, evaluate_text(step.generator, ctx))
        elif step.op == "bracket":
            z = lie_bracket(parent, evaluate_text(step.generator, ctx))
        else:
            raise AssertionError(step.op)
        assert z == step.element
        inside = window.a_inside(z) if step.op in ("mul", "derive") else window.weyl_inside(z)
        assert inside
        elements.append(z)


def test_closure_steps_replay_exactly(weyl_q, euler_q):
    w = Window.for_context(weyl_q, {"t": (0, 6)}, max_level=3)
    seed = weyl_q.var("t")
    verdict = d_simplicity_probe(weyl_q, seed, w)
    replay_closure(weyl_q, w, seed, verdict)

    seed2 = evaluate_text("t*d1", weyl_q)
    verdict2 = assoc_ideal_closure_probe(weyl_q, seed2, w)
    replay_closure(weyl_q, w, seed2, verdict2)

    f1 = compute_f1(weyl_q, w)
    verdict3 = lie_ideal_closure_probe(weyl_q, seed2, w, f1)
    replay_closure(weyl_q, w, seed2, verdict3)


def test_enlarging_window_never_shrinks_spans(euler_q):
    ctx = euler_q
    small = Window.for_context(ctx, {"t": (0, 4)}, max_level=2)
    large = Window.for_context(ctx, {"t": (0, 8)}, max_level=3)
    v_small = d_simplicity_probe(ctx, ctx.var("t"), small)
    v_large = d_simplicity_probe(ctx, ctx.var("t"), large)
    index = {m: j for j, m in enumerate(large.a_basis(ctx))}
    red = RowReducer(ctx.spec)
    for u in v_large.witness:
        red.add(a_coords(u, index))
    for u in v_small.witness:
        assert red.contains(a_coords(u, index))


# -- characteristic-p machinery ------------------------------------------------------


def test_p_power_of_usual_derivative_is_zero_in_char2(weyl_f2):
    ctx = weyl_f2
    squared = p_power_derivation(ctx.derivation("d1"), 2, ctx)
    assert ctx.apply_derivation(squared, ctx.var("t", 3)).is_zero()
    assert ctx.apply_derivation(squared, ctx.var("t")).is_zero()


def test_p_power_of_euler_is_euler_in_char5(laurent_euler_f5):
    ctx = laurent_euler_f5
    fifth = p_power_derivation(ctx.derivation("d1"), 5, ctx)
    d = ctx.derivation("d1")
    for e in (-3, -1, 1, 2, 7):
        u = ctx.var("t", e)
        assert ctx.apply_derivation(fifth, u) == ctx.apply_derivation(d, u)


def test_p_power_of_shift_squares_the_offset():
    ctx = Context(FieldSpec("prime", 2), variable_cap=16)
    ctx.add_variable("x1")
    ctx.add_derivation("d1", shift_prefix="x")
    ctx.freeze()
    squared = p_power_derivation(ctx.derivation("d1"), 2, ctx)
    assert ctx.apply_derivation(squared, ctx.var("x1")) == ctx.var("x3")


def test_p_power_requires_matching_characteristic(weyl_q):
    with pytest.raises(UsageError):
        p_power_derivation(weyl_q.derivation("d1"), 2, weyl_q)


def test_p_adic_factors_recompose_under_multiplication(weyl_f5):
    from weyltype import p_adic_factor

    ctx = weyl_f5
    for e in range(0, 7):
        alpha = mk({0: e})
        product = widentity(ctx)
        for factor in p_adic_factor(alpha, 5):
            piece = wbasis(ctx, mk({factor.index: factor.power}))
            for _ in range(factor.multiplicity):
                product = w_mul(product, piece)
        assert product == wbasis(ctx, alpha)


# -- determinant witnesses ---------------------------------------------------------


def test_wronskian_single_derivation(weyl_q):
    ctx = weyl_q
    found = wronskian_witness([ctx.derivation("d1")], [ctx.var("t")], ctx)
    assert found is not None
    chosen, det = found
    assert chosen == [ctx.var("t")]
    assert det == ctx.one()


def test_wronskian_two_partials(mixed_ctx):
    ctx = mixed_ctx
    d1, d2 = ctx.derivations[0], ctx.derivations[1]
    found = wronskian_witness([d1, d2], [ctx.var("t1"), ctx.var("t2")], ctx)
    assert found is not None
    _, det = found
    assert det == ctx.one()


def test_wronskian_not_found(weyl_q):
    ctx = weyl_q
    assert wronskian_witness([ctx.derivation("d1")], [ctx.one()], ctx) is None
    with pytest.raises(UsageError):
        wronskian_witness([ctx.derivation("d1")], [ctx.zero()], ctx)
