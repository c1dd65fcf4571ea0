import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from weyltype import (
    BasisCapError,
    Context,
    FieldSpec,
    MultiIndex,
    RATIONAL,
    UsageError,
    ValidationError,
    Window,
    assoc_ideal_closure_probe,
    compute_f1,
    d_simplicity_probe,
    evaluate_text,
    lie_ideal_closure_probe,
    theta_kernel,
    w_mul,
    wbasis,
    widentity,
)
from weyltype import operators, probes
from weyltype.coefficients import AElement
from weyltype.checks import SampleBounds, random_scalar, random_weyl
from weyltype.linalg import RowReducer
from weyltype.operators import act, format_weyl, lie_bracket, wderivation, wfrom_a
from weyltype.probes import (
    KERNEL_NONZERO,
    KERNEL_ZERO,
    PROPER_INVARIANT_SUBSPACE,
    REACHES_IDENTITY,
    FULL_SPAN_MOD_F1,
    ClosureStep,
    a_coords,
    a_from_coords,
    weyl_coords,
)
from weyltype.reports import build_report, report_bytes, run_probe
from weyltype.scenario import (
    bundled_scenario_names,
    bundled_scenario_path,
    load_bundled,
    load_scenario,
    load_scenario_mapping,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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
    assert [str(wfrom_a(a_from_coords(weyl_q, basis, {j: 1}))) for j in range(4)] == [
        "1", "t", "t^2", "t^3"
    ]
    multis = w.multi_indices(weyl_q)
    assert multis == [mk({}), mk({0: 1}), mk({0: 2})]
    assert len(w.ad_basis(weyl_q)) == 12


def test_window_cap(weyl_q):
    w = Window.for_context(weyl_q, {"t": (0, 100)}, max_level=3, basis_cap=50)
    with pytest.raises(BasisCapError):
        w.a_basis(weyl_q)


@pytest.mark.parametrize("cap", [0, probes.MAX_BASIS_CAP + 1])
def test_window_refuses_a_basis_cap_out_of_range(weyl_q, cap):
    with pytest.raises(ValidationError, match=r"basis_cap must be in \[1, 20000\]"):
        Window.for_context(weyl_q, {"t": (0, 4)}, max_level=2, basis_cap=cap)


def test_window_accepts_the_ends_of_the_basis_cap_range(weyl_q):
    for cap in (1, probes.MAX_BASIS_CAP):
        assert Window.for_context(weyl_q, {"t": (0, 4)}, max_level=2, basis_cap=cap).basis_cap == cap


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
            x = wbasis(ctx, alpha, a_from_coords(ctx, [m], {0: 1}))
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


class Undecided(Exception):
    """The window is too narrow to decide equal_mod_f1."""


def equal_mod_f1(x, y, f1) -> bool:
    """Whether two operators agree in the quotient by the central kernel."""
    diff = x - y
    if diff.is_zero():
        return True
    if not diff.is_a_only():
        return False
    vec = a_coords(diff.a_part(), f1.index)
    if vec is None:
        raise Undecided("difference leaves the window; widen it to decide")
    return f1.contains(vec)


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
    with pytest.raises(Undecided):
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
            assert act(k, a_from_coords(ctx, [m], {0: 1})).is_zero()


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
    # so building the rows of all 64 would be wasted work.
    acted_on = []
    a_element = probes._a_element

    def recorded(ctx, m):
        acted_on.append(m)
        return a_element(ctx, m)

    monkeypatch.setattr(probes, "_a_element", recorded)
    bounds = {name: (0, 3) for name in ("x1", "x2", "x3")}
    w = Window.for_context(shift_ctx, bounds, max_level=3)
    verdict = theta_kernel(shift_ctx, w)
    assert verdict.kind == KERNEL_ZERO
    assert verdict.coverage == 1
    assert 1 <= len(acted_on) <= 3
    assert acted_on == w.a_basis(shift_ctx)[: len(acted_on)]


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


def test_theta_kernel_acts_on_products_outside_the_box(weyl_q):
    # d1^2 kills 1 and t, the whole box, but sends t^2 = t*t to 2: an
    # operator of level 2 must also kill the products of two generators.
    w = Window.for_context(weyl_q, {"t": (0, 1)}, max_level=2)
    verdict = theta_kernel(weyl_q, w)
    assert verdict.kind == KERNEL_ZERO
    assert verdict.note == "window-restricted evidence"


def test_theta_kernel_counts_laurent_inverses_as_generators():
    # On this box 18 operators of level <= 3 kill every monomial, yet none
    # kills g1^2 or the other products of three generators outside it.
    scenario = load_bundled("group_algebra_z2")
    w = Window.for_context(scenario.ctx, {"g1": (-1, 1), "g2": (-1, 1)}, max_level=3)
    verdict = theta_kernel(scenario.ctx, w)
    assert verdict.kind == KERNEL_ZERO
    assert verdict.witness == []


def test_theta_kernel_nonzero_with_a_shift_derivation_is_window_evidence():
    # d2 - d1 is d/dt, and its square vanishes in characteristic 2, so
    # d1^2 + d2^2 kills A; but a shift family has infinitely many generators,
    # so the rows never cover all of them and the verdict keeps the note.
    ctx = Context(FieldSpec("prime", 2), variable_cap=16)
    ctx.add_variable("t", "polynomial")
    ctx.add_variable("x1", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.zero()}, shift_prefix="x")
    ctx.add_derivation("d2", images={"t": ctx.one()}, shift_prefix="x")
    ctx.freeze()
    # Freezing created x2 and x3, which take no bounds and stay at exponent 0.
    w = Window.for_context(ctx, {"t": (0, 2), "x1": (0, 1)}, max_level=2)
    verdict = theta_kernel(ctx, w)
    assert verdict.kind == KERNEL_NONZERO
    assert verdict.note == "window-restricted evidence"
    assert span_contains_weyl(ctx, w, verdict.witness, evaluate_text("d1^2 + d2^2", ctx))


def kills_everything(x, generators, count):
    """x kills A iff x(1) = 0 and [x, g] kills A for every generator g;
    bracketing with a coefficient lowers the level, so this terminates."""
    count[0] += 1
    if x.is_zero():
        return True
    if not act(x, x.ctx.one()).is_zero():
        return False
    return all(kills_everything(lie_bracket(x, g), generators, count) for g in generators)


@pytest.mark.parametrize(
    "name, bounds, level",
    [
        ("char2_poly", None, None),
        ("char5_laurent_euler", None, None),
        ("char2_poly", {"t": (0, 12)}, 4),
        ("char5_laurent_euler", {"t": (-2, 2)}, 6),
    ],
)
def test_theta_kernel_witnesses_kill_all_of_a(name, bounds, level):
    # An oracle independent of the row reduction: the recursive check above,
    # over the generators t and, for Laurent t, 1/t.
    scenario = load_bundled(name)
    ctx = scenario.ctx
    w = scenario.window if bounds is None else Window.for_context(ctx, bounds, max_level=level)
    verdict = theta_kernel(ctx, w)
    assert verdict.kind == KERNEL_NONZERO
    generators = [wfrom_a(ctx.var("t"))]
    if ctx.variable("t").kind == "laurent":
        generators.append(wfrom_a(ctx.var("t", -1)))
    count = [0]
    for x in verdict.witness:
        assert kills_everything(x, generators, count)
    assert count[0] > len(verdict.witness)


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


def _closure_probes(ctx, window):
    f1 = compute_f1(ctx, window)
    return {
        "d_simplicity": lambda seed: d_simplicity_probe(ctx, seed.a_part(), window),
        "assoc_closure": lambda seed: assoc_ideal_closure_probe(ctx, seed, window),
        "lie_closure": lambda seed: lie_ideal_closure_probe(ctx, seed, window, f1),
    }


@pytest.mark.parametrize("kind", ["d_simplicity", "assoc_closure", "lie_closure"])
def test_closure_probes_reject_zero_and_outside_seeds(weyl_q, kind):
    w = Window.for_context(weyl_q, {"t": (0, 6)}, max_level=3)
    probe = _closure_probes(weyl_q, w)[kind]
    with pytest.raises(UsageError, match="seed must be nonzero"):
        probe(evaluate_text("0", weyl_q))
    with pytest.raises(UsageError, match="does not fit inside the window"):
        probe(evaluate_text("t^7", weyl_q))


def test_lie_closure_checks_the_window_before_centrality(weyl_f5):
    # t^5 is central in characteristic 5.  Against a kernel computed on a
    # wider window it is refused first for not fitting the probe's own
    # window; inside the wider window it is refused as central.
    ctx = weyl_f5
    seed = wfrom_a(ctx.var("t", 5))
    wide = Window.for_context(ctx, {"t": (0, 6)}, max_level=1)
    f1 = compute_f1(ctx, wide)
    narrow = Window.for_context(ctx, {"t": (0, 3)}, max_level=1)
    with pytest.raises(UsageError, match="does not fit inside the window"):
        lie_ideal_closure_probe(ctx, seed, narrow, f1)
    with pytest.raises(UsageError, match="central"):
        lie_ideal_closure_probe(ctx, seed, wide, f1)


VACUOUS_INTERIOR = "^interior sub-window holds no target outside the derivation kernel$"


def test_lie_closure_refuses_an_interior_inside_the_kernel(euler_q):
    # With t in [0, 1] and level 1 the margin-1/2 interior is {1}, and 1 lies
    # in f1: every seed would read full_span_mod_f1, t*d1 inside the proper
    # ideal t*A[D] among them.
    ctx = euler_q
    seed = evaluate_text("t*d1", ctx)
    w = Window.for_context(ctx, {"t": (0, 1)}, max_level=1)
    with pytest.raises(UsageError, match=VACUOUS_INTERIOR):
        lie_ideal_closure_probe(ctx, seed, w, compute_f1(ctx, w))
    wider = Window.for_context(ctx, {"t": (0, 2)}, max_level=1)
    verdict = lie_ideal_closure_probe(ctx, seed, wider, compute_f1(ctx, wider))
    assert verdict.kind == PROPER_INVARIANT_SUBSPACE and verdict.unreached == ["t"]


def test_window_needs_no_bounds_for_variables_a_shift_rule_registered():
    # Freezing applies both shift derivations to x1 and x2, registering x2
    # and x3; only the declared t and x1 need bounds, and x2, x3 stay at 0.
    ctx = Context(RATIONAL)
    ctx.add_variable("t", "polynomial")
    ctx.add_variable("x1", "polynomial")
    ctx.add_derivation("s1", images={"t": ctx.zero()}, shift_prefix="x")
    ctx.add_derivation("d2", images={"t": ctx.one()}, shift_prefix="x")
    ctx.freeze()
    assert [v.name for v in ctx.variables] == ["t", "x1", "x2", "x3"]
    w = Window.for_context(ctx, {"t": (0, 1), "x1": (0, 1)}, max_level=1)
    assert [w.bound_for(i) for i in range(4)] == [(0, 1), (0, 1), (0, 0), (0, 0)]
    assert len(w.a_basis(ctx)) == 4
    with pytest.raises(ValidationError, match="no bounds for variable x1"):
        Window.for_context(ctx, {"t": (0, 1)}, max_level=1)


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
    a_index = {m: j for j, m in enumerate(window.a_basis(ctx))}
    ad_index = {lab: j for j, lab in enumerate(window.ad_basis(ctx))}
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
        if step.op in ("mul", "derive"):
            assert a_coords(z, a_index) is not None
        else:
            assert weyl_coords(z, ad_index) is not None
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


# sha256 of each closure probe's step chain: one "op generator parent" line
# per accepted step, keyed by the probe's index in its scenario.
STEP_CHAINS = {
    "char2_poly": {
        2: "42cb2c0365e373ca8bb724466c3f90c7811e9645d8bdc0dd6f3a51d1ed32bda8",
        3: "965a1e8b566ed0743ae9f0252392d6d76a46f580a29017ae62be1713feaadf75",
        4: "a1d9e201a660efa26e4854ead453a533bc1adafb4e44f466574d495cdda194c9",
    },
    "char5_laurent_euler": {},
    "group_algebra_z2": {
        1: "f5ea67629bba11061d978d50b58b9ae2ba3fc35ef4e88a56b2c73e0f3a38cdd3",
        2: "9151a37fb6ddca657bc9023d2a523c9ff5dbe6484ea0d403a7e7a59a16199e5b",
    },
    "laurent_euler": {
        1: "9d09f8b273795a7364425e9f6b31b1a11922478b4678f6473e95746b1e7bbf22",
        2: "ad1a77ffa5d44216d824ecc96e4f9e31681c0cecd39fb3e2466bbbe8d0211346",
        3: "e1cbe07cbb4afcd026ae6bf635f44ff7f0982de27ccb70a30507d1f94a9b5022",
    },
    "mixed_flavors": {
        1: "d159e5cbe0876c4a834b1996c07c36b64cfc16bae2f71aa7a082db9ff932f7e4",
        2: "95cc6849c2dea413b2850cf1172b168fe9f4d14a891990473a4435cb5e15a0fd",
    },
    "nonsimple_euler": {
        1: "ec93a4f9a7cfac61b227b13adedf63ab888bd1f26012b4a3e520550501a11261",
        2: "d9b9352abcd298b7e37d443739e7dfc5ca751d0ab068bb9ed6af3a793e6bb98e",
        3: "078550900748836965fcbd32e35f57137b35eed7a867ac5b1cbbf78317b62d64",
    },
    "shift_family": {},
    "weyl_polynomial": {
        1: "42cb2c0365e373ca8bb724466c3f90c7811e9645d8bdc0dd6f3a51d1ed32bda8",
        2: "2282a61357be24b73ceb78374707da8af753ebffabaa82b813ba33e53cb2dea3",
        3: "15dccc03c536ee83708b4f8f8d1dad1148fd2cfccbcd633f758b67a6cfee82ba",
        4: "34eda0fc3c6ef68eebda37807b5f23736fd6b0ccac327643a83f05c5ba17a19c",
        5: "e983949cd7e832831b94555b4c876fc8c144d040b6ddf4376d413a1e3aeeeaf0",
    },
    "closure_wide": {
        1: "03e2e72003915ad568fcfb2b7c4d6309b8ddadca34e2f6f9d83132badc0139ea",
        2: "2282a61357be24b73ceb78374707da8af753ebffabaa82b813ba33e53cb2dea3",
        3: "0b4c3d5d73fc5e7caee044b9d8840b4bcdde8bf617ba5f732878bf73d192c37b",
        4: "554a5414e69d4e1aca9e5fd380dec3a7796a9d007298c757f6eac8d3720486e7",
        5: "10ffbc5c38330c7ca1b1c833b97db67619c8b3adf113b839a776a2d983bf9d76",
    },
}


def _step_chains(scenario) -> dict[int, str]:
    f1 = compute_f1(scenario.ctx, scenario.window)
    out = {}
    for k, request in enumerate(scenario.probes):
        if request.kind != "theta_kernel":
            steps = run_probe(scenario, request, f1).steps
            text = "".join(f"{s.op} {s.generator} {s.parent}\n" for s in steps)
            out[k] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(STEP_CHAINS))
def test_closure_step_order_is_pinned(name):
    # Discard decisions depend on the exact elements produced, so the order
    # in which closure steps are tried is part of every verdict; the golden
    # reports pin the spans but not this order.
    if name == "closure_wide":
        scenario = load_scenario(PERFBENCH / "scenarios" / "closure_wide.json")
    else:
        scenario = load_bundled(name)
    assert _step_chains(scenario) == STEP_CHAINS[name]


def test_step_chains_cover_every_bundled_scenario():
    assert set(STEP_CHAINS) == set(bundled_scenario_names()) | {"closure_wide"}


# -- stopping a closure early ----------------------------------------------------


def _unguarded(bracket):
    return lambda x, y, guard=None: bracket(x, y)


def skip_off(monkeypatch):
    """Turn the graded skip of both closure walks off: every window reads as ungraded,
    so the walk forms every step."""
    monkeypatch.setattr(Window, "pieces", lambda self, ctx, labels=None: None)


def exhaustive_closure(ctx, seed, index, coords, expand, stop=None, central=None, room=None):
    """The closure engine before it stopped on a full span: the BFS runs on
    until a round accepts nothing, unless the `stop` label enters the span.
    The oracle for probes._closure; of its ProbeStats it fills only the stop
    reason, and a None step result is a discard.  It forms every step, so
    the graded skip must be off (skip_off)."""
    assert room is None, "turn the graded skip off first"
    if seed.is_zero():
        raise UsageError("seed must be nonzero")
    seed_vec = coords(seed, index)
    if seed_vec is None:
        raise UsageError("seed does not fit inside the window")
    if central is not None and seed.is_a_only():
        avec = a_coords(seed.a_part(), central.index)
        if avec is not None and central.contains(avec):
            raise UsageError("seed is central (inside the derivation kernel)")

    red = RowReducer(ctx.spec)
    red.add(seed_vec)
    accepted = [seed]
    steps = []
    stop_vec = None if stop is None else {index[stop]: 1}
    if stop_vec is not None and red.contains(stop_vec):
        return red, steps, probes.ProbeStats(stop=probes.STOP_IDENTITY)
    frontier = [0]
    while frontier:
        next_frontier = []
        for pi in frontier:
            for op, gname, z in expand(accepted[pi]):
                if z is None or z.is_zero():
                    continue
                vec = coords(z, index)
                if vec is None:
                    continue
                if red.add(vec):
                    accepted.append(z)
                    steps.append(ClosureStep(op, gname, pi, z))
                    next_frontier.append(len(accepted) - 1)
                    if stop_vec is not None and red.contains(stop_vec):
                        return red, steps, probes.ProbeStats(stop=probes.STOP_IDENTITY)
        frontier = next_frontier
    return red, steps, probes.ProbeStats(stop=probes.STOP_EXHAUSTED)


def _shift_family_with_closures():
    # No lie_closure of a shift family fills its window: the shift keeps
    # degrees, so no bracket has a term with a constant coefficient.  The
    # probes after it register shift variables of their own, and must see
    # the same context either way.
    data = json.loads(bundled_scenario_path("shift_family").read_text())
    data["probes"] = [
        {"kind": "lie_closure", "seed": "x1*d1"},
        {"kind": "assoc_closure", "seed": "x2*d1"},
        {"kind": "theta_kernel"},
        {"kind": "lie_closure", "seed": "x1^2*d1"},
    ]
    return load_scenario_mapping(data, "shift_family_closures")


EXACTNESS_SCENARIOS = {
    **{name: (lambda name=name: load_bundled(name)) for name in bundled_scenario_names()},
    "closure_wide": lambda: load_scenario(PERFBENCH / "scenarios" / "closure_wide.json"),
    "shift_family_closures": _shift_family_with_closures,
}


@pytest.mark.parametrize("name", sorted(EXACTNESS_SCENARIOS))
def test_early_stop_reports_equal_the_exhaustive_walk(name, monkeypatch):
    def run():
        scenario = EXACTNESS_SCENARIOS[name]()
        report = report_bytes(build_report(scenario))
        return report, [v.name for v in scenario.ctx.variables]

    engine = run()
    skip_off(monkeypatch)
    monkeypatch.setattr(probes, "_closure", exhaustive_closure)
    assert run() == engine


@pytest.mark.parametrize("name", ["closure_wide", "group_algebra_z2", "laurent_euler", "weyl_polynomial"])
def test_saturated_lie_closure_makes_no_further_step(name, monkeypatch):
    # Once the span holds every label, no step can be accepted, so none is
    # tried; the exhaustive walk makes 4,934 more brackets on closure_wide.
    scenario = EXACTNESS_SCENARIOS[name]()
    f1 = compute_f1(scenario.ctx, scenario.window)
    request, = [r for r in scenario.probes if r.kind == "lie_closure"]
    full = len(scenario.window.ad_basis(scenario.ctx))
    reducers = []

    class Recorded(RowReducer):
        def __init__(self, spec):
            super().__init__(spec)
            reducers.append(self)

    calls, late = [0], [0]

    def counted(x, y, guard=None):
        calls[0] += 1
        late[0] += reducers[-1].rank == full
        return lie_bracket(x, y, guard)

    monkeypatch.setattr(probes, "RowReducer", Recorded)
    monkeypatch.setattr(probes, "lie_bracket", counted)
    verdict = run_probe(scenario, request, f1)
    assert verdict.kind == FULL_SPAN_MOD_F1
    assert verdict.stop == probes.STOP_SATURATED
    assert calls[0] > 0
    assert late[0] == 0


@pytest.mark.parametrize(
    "name, kind, stop",
    [
        ("weyl_polynomial", "lie_closure", probes.STOP_SATURATED),
        ("nonsimple_euler", "lie_closure", probes.STOP_EXHAUSTED),
        ("weyl_polynomial", "assoc_closure", probes.STOP_IDENTITY),
    ],
)
def test_closure_verdicts_carry_their_stop_reason(name, kind, stop):
    scenario = load_bundled(name)
    f1 = compute_f1(scenario.ctx, scenario.window)
    request = next(r for r in scenario.probes if r.kind == kind)
    assert run_probe(scenario, request, f1).stop == stop
    for entry in build_report(load_bundled(name))["probes"]:
        assert "stop" not in entry
        assert stop not in entry.values()


def _bundled_step_totals() -> Counter:
    totals = Counter()
    for name in bundled_scenario_names():
        scenario = load_bundled(name)
        f1 = compute_f1(scenario.ctx, scenario.window)
        for request in scenario.probes:
            verdict = run_probe(scenario, request, f1)
            stats = verdict.stats
            if request.kind == "theta_kernel":
                assert stats is None and verdict.stop == ""
                continue
            assert stats.tried == sum(getattr(stats, k) for k in STEP_OUTCOMES)
            assert stats.accepted == len(verdict.steps)
            assert stats.ranks[0] == 1 and stats.ranks == sorted(stats.ranks)
            assert stats.ranks[-1] == len(verdict.witness)
            assert verdict.stop == stats.stop
            totals.update({k: getattr(stats, k) for k in ("tried", *STEP_OUTCOMES)})
    return totals


STEP_OUTCOMES = ("zero", "discarded", "in_span", "accepted", "skipped")


def test_closure_stats_equal_those_of_forming_every_product(monkeypatch):
    # With the graded skip off, the counts are those of a walk that forms
    # every product, in full, and reads each one's coordinates: a step that
    # the principal symbol or a guarded bracket finds to leave the window is
    # discarded all the same.  With it on, the same steps are tried and
    # accepted, and the skipped ones leave zero, discarded and in_span.
    totals = _bundled_step_totals()
    assert totals == {
        "tried": 3_429, "zero": 102, "discarded": 262, "in_span": 217, "accepted": 306, "skipped": 2_542,
    }
    skip_off(monkeypatch)
    unskipped = _bundled_step_totals()
    assert unskipped == {
        "tried": 3_429, "zero": 317, "discarded": 1_796, "in_span": 1_010, "accepted": 306, "skipped": 0,
    }
    monkeypatch.setattr(probes, "_symbol_leaves", lambda room, shift: False)
    monkeypatch.setattr(probes, "lie_bracket", _unguarded(lie_bracket))
    assert _bundled_step_totals() == unskipped


def test_graded_skip_forms_98_of_the_closure_wide_brackets(monkeypatch):
    # closure_wide's lie_closure tries 1,072 steps; 974 of them land in a
    # piece of the window that is empty or already spanned, and only the
    # other 98 are formed.
    scenario = load_scenario(PERFBENCH / "scenarios" / "closure_wide.json")
    f1 = compute_f1(scenario.ctx, scenario.window)
    request, = [r for r in scenario.probes if r.kind == "lie_closure"]
    calls = [0]

    def counted(x, y, guard=None):
        calls[0] += 1
        return lie_bracket(x, y, guard)

    monkeypatch.setattr(probes, "lie_bracket", counted)
    stats = run_probe(scenario, request, f1).stats
    assert (stats.tried, stats.skipped, stats.accepted) == (1_072, 974, 77)
    assert calls[0] == stats.tried - stats.skipped == 98


# -- the exponent grading ---------------------------------------------------------


@pytest.mark.parametrize(
    "name, grading",
    [
        ("mixed_flavors", None),  # d2 sends t2 to 1 but x2 to x2
        ("shift_family", None),
        ("weyl_polynomial", ((-1,),)),
        ("char2_poly", ((-1,),)),
        ("nonsimple_euler", ((0,),)),
        ("laurent_euler", ((0,),)),
        ("char5_laurent_euler", ((0,),)),
        ("group_algebra_z2", ((0, 0), (0, 0))),
    ],
)
def test_context_finds_the_exponent_grading(name, grading):
    assert load_bundled(name).ctx.grading == grading


def test_grading_of_hand_built_derivations():
    def grading(**images):
        ctx = Context(RATIONAL)
        ctx.add_variable("t", "polynomial")
        ctx.add_variable("s", "laurent")
        ctx.add_derivation("d1", images={v: evaluate_text(x, ctx).a_part() for v, x in images.items()})
        return ctx.freeze().grading

    assert grading(t="t^2", s="0") == ((1, 0),)
    assert grading(t="0", s="t*s") == ((1, 0),)
    assert grading(t="2*t*s", s="s^2") == ((0, 1),)
    assert grading(t="0", s="0") == ((0, 0),)
    assert grading(t="s", s="t*s^2") is None  # shifts (-1, 1) and (1, 1) disagree
    assert grading(t="1 + t", s="0") is None  # not a single monomial


GRADED_SCENARIOS = sorted(set(bundled_scenario_names()) - {"mixed_flavors", "shift_family"})


def _homogeneous_element(ctx, rng, labels_by_degree):
    degree = rng.choice(sorted(labels_by_degree))
    labels = labels_by_degree[degree]
    x = None
    for alpha, m in rng.sample(labels, rng.randint(1, min(3, len(labels)))):
        term = wbasis(ctx, alpha, AElement(ctx, {m: random_scalar(rng, ctx, nonzero=True)}))
        x = term if x is None else x + term
    assume(not x.is_zero())
    return degree, x


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(GRADED_SCENARIOS), seed=st.integers(0, 10**6))
def test_degrees_add_under_products_and_brackets(name, seed):
    scenario = load_bundled(name)
    ctx, window = scenario.ctx, scenario.window
    labels_by_degree = {}
    for alpha, m in window.ad_basis(ctx):
        labels_by_degree.setdefault(ctx.degree(alpha, m), []).append((alpha, m))
    assert {d: len(labs) for d, labs in labels_by_degree.items()} == window.pieces(ctx)
    rng = random.Random(seed)
    (dx, x), (dy, y) = (_homogeneous_element(ctx, rng, labels_by_degree) for _ in range(2))
    assert probes._degrees(x) == {dx} and probes._degrees(y) == {dy}
    total = tuple(map(add, dx, dy))
    # A is a domain, so the principal symbol of x*y is not zero.
    assert probes._degrees(w_mul(x, y)) == {total}
    bracket = lie_bracket(x, y)
    event(f"bracket is zero: {bracket.is_zero()}")
    assert probes._degrees(bracket) <= {total}


def test_an_inhomogeneous_seed_skips_only_empty_pieces(monkeypatch):
    # t*d1 + t^2*d1 has terms of degrees 1 and 2, so the span is not graded
    # and a full piece shows nothing; a step is skipped only when every
    # piece its bracket can reach holds no window label.
    scenario = load_bundled("nonsimple_euler")
    ctx, window = scenario.ctx, scenario.window
    f1 = compute_f1(ctx, window)
    seed = evaluate_text("t*d1 + t^2*d1", ctx)
    pieces = window.pieces(ctx)
    formed = []
    original = probes.lie_bracket

    def recorded(x, y, guard=None):
        formed.append((x, y))
        return original(x, y, guard)

    def run():
        formed.clear()
        monkeypatch.setattr(probes, "lie_bracket", recorded)
        verdict = lie_ideal_closure_probe(ctx, seed, window, f1)
        chain = [(s.op, s.generator, s.parent, format_weyl(s.element)) for s in verdict.steps]
        return (verdict.kind, verdict.coverage, chain), verdict.stats, list(formed)

    graded, stats, formed_graded = run()
    skip_off(monkeypatch)
    unskipped, stats_off, formed_all = run()
    empty = [
        (e, g) for e, g in formed_all
        if all(tuple(map(add, d, dg)) not in pieces for d in probes._degrees(e) for dg in probes._degrees(g))
    ]
    assert graded == unskipped
    assert stats.tried == stats_off.tried
    assert stats.skipped == len(empty) > 0
    assert len(formed_graded) == len(formed_all) - len(empty)


def _symbol_context(kind: str) -> Context:
    if kind == "shift":
        ctx = Context(RATIONAL, variable_cap=16)
        for name in ("x1", "x2", "x3"):
            ctx.add_variable(name, "polynomial")
        ctx.add_derivation("d1", shift_prefix="x")
        return ctx.freeze()
    if kind == "laurent":
        ctx = Context(RATIONAL)
        ctx.add_variable("t", "laurent")
        ctx.add_variable("s", "polynomial")
        ctx.add_derivation("d1", images={"t": ctx.var("t"), "s": ctx.zero()})
        ctx.add_derivation("d2", images={"t": ctx.zero(), "s": ctx.one()})
        return ctx.freeze()
    ctx = Context(RATIONAL if kind == "q" else FieldSpec("prime", 5))
    ctx.add_variable("t", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.one()})
    return ctx.freeze()


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["q", "f5", "laurent", "shift"]),
    lows=st.lists(st.integers(-3, 0), min_size=3, max_size=3),
    highs=st.lists(st.integers(0, 4), min_size=3, max_size=3),
    max_level=st.integers(0, 3),
    seed=st.integers(0, 10**6),
    pick=st.integers(0, 10**6),
    inside=st.booleans(),
)
def test_symbol_test_fires_only_on_products_that_leave(kind, lows, highs, max_level, seed, pick, inside):
    ctx = _symbol_context(kind)
    declared = [v for v in ctx.variables if v.declared]
    bounds = {
        v.name: (lo if v.kind == "laurent" else 0, hi)
        for v, lo, hi in zip(declared, lows, highs)
    }
    window = Window.for_context(ctx, bounds, max_level)
    gens = probes.closure_tables(ctx, window).gens
    assume(gens)
    _, g, _ = gens[pick % len(gens)]
    rng = random.Random(seed)
    if inside:  # like every element a closure walk steps from
        labels = window.ad_basis(ctx)
        vec = {rng.randrange(len(labels)): random_scalar(rng, ctx, nonzero=True) for _ in range(3)}
        e = probes.weyl_from_coords(ctx, labels, vec)
    else:
        sample = SampleBounds(max_degree=3, max_level=3, max_terms=3, n_variables=len(declared))
        e = random_weyl(rng, ctx, sample, nonzero=True)

    # The top level of g*e and of e*g is m*u_alpha at alpha + beta, with no
    # cancellation, over the top-level terms u_alpha of e.
    (beta, m), = g.terms.items()
    lev = max(alpha.level() for alpha in e.terms)
    top = {alpha.add(beta): m * u for alpha, u in e.terms.items() if alpha.level() == lev}
    products = (w_mul(g, e), w_mul(e, g))
    for z in products:
        assert {a: u for a, u in z.terms.items() if a.level() == lev + beta.level()} == top

    room = probes._symbol_room(e, window)
    fires = probes._symbol_leaves(room, probes._generator_shift(g, window))
    event(f"symbol test fires: {fires}")
    if fires:
        index = {lab: j for j, lab in enumerate(window.ad_basis(ctx))}
        for z in products:
            assert weyl_coords(z, index) is None


def test_symbol_test_reads_only_the_top_level(monkeypatch):
    # In (d1 + t^-1)*t^-1 = t^-1*d1 the level-0 terms cancel, so a test over
    # every monomial of e, not only the top-level ones, would discard a
    # product that fits the window.
    ctx = Context(RATIONAL)
    ctx.add_variable("t", "laurent")
    ctx.add_derivation("d1", images={"t": ctx.one()})
    ctx.freeze()
    window = Window.for_context(ctx, {"t": (-1, 1)}, max_level=1)
    e, g = evaluate_text("d1 + t^-1", ctx), evaluate_text("t^-1", ctx)
    assert format_weyl(w_mul(e, g)) == "t^-1*d1"
    assert not probes._symbol_leaves(probes._symbol_room(e, window), probes._generator_shift(g, window))

    def run():
        verdict = assoc_ideal_closure_probe(ctx, e, window)
        chain = [(s.op, s.generator, s.parent, format_weyl(s.element)) for s in verdict.steps]
        return verdict.kind, verdict.coverage, chain, verdict.stats.discarded

    predicted = run()
    assert ("rmul", "t^-1", 0, "t^-1*d1") in predicted[2]
    monkeypatch.setattr(probes, "_symbol_leaves", lambda room, shift: False)
    assert run() == predicted


def test_guard_bounds_the_lie_closure_work(monkeypatch):
    # Products that leave the window stop at their first finished level
    # outside it; computed in full, this probe makes 27,235 apply_multi calls.
    scenario = load_scenario(PERFBENCH / "scenarios" / "closure_wide.json")
    f1 = compute_f1(scenario.ctx, scenario.window)
    request, = [r for r in scenario.probes if r.kind == "lie_closure"]
    calls = [0]
    original = operators.apply_multi

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(operators, "apply_multi", counted)
    run_probe(scenario, request, f1)
    assert 0 < calls[0] <= 18_000


def test_guard_keeps_shift_family_closure_steps(monkeypatch):
    # Shift-family products create variables the window has never seen; such
    # steps are discarded with or without the bracket guard and the symbol
    # test, and the kept steps agree.
    def run():
        ctx = Context(RATIONAL, variable_cap=16)
        for name in ("x1", "x2", "x3"):
            ctx.add_variable(name, "polynomial")
        ctx.add_derivation("d1", shift_prefix="x")
        ctx.freeze()
        w = Window.for_context(ctx, {f"x{i}": (0, 1) for i in (1, 2, 3)}, max_level=2)
        f1 = compute_f1(ctx, w)
        out = []
        for seed in ("x1*d1", "x2 + d1", "x1*x3*d1^2"):
            for verdict in (
                assoc_ideal_closure_probe(ctx, evaluate_text(seed, ctx), w),
                lie_ideal_closure_probe(ctx, evaluate_text(seed, ctx), w, f1),
            ):
                out.append((verdict.kind, verdict.coverage))
                out.extend((s.op, s.generator, s.parent, format_weyl(s.element)) for s in verdict.steps)
        return out

    guarded = run()
    monkeypatch.setattr(probes, "_symbol_leaves", lambda room, shift: False)
    monkeypatch.setattr(probes, "lie_bracket", _unguarded(lie_bracket))
    assert run() == guarded
    assert len(guarded) > 6


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


# -- p-adic factors ------------------------------------------------------------------


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
