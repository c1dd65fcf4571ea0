"""Closure probes against ideals known in closed form.

Three bundled control scenarios have proper ideals with a membership test
that does not use the engine:

- nonsimple_euler (Q[t], d1 = t*d/dt): t*A is d1-stable, and t*A[D] is a
  two-sided ideal.  Every coefficient monomial is divisible by t.
- char2_poly (F_2[t], d1 = d/dt): d1(t^2) = 2t = 0, so t^2*A is d1-stable;
  d1^2 is central, and A[D]*d1^2 holds exactly the elements whose terms all
  sit at level >= 2.
- char5_laurent_euler (F_5[t, 1/t], d1 = t*d/dt): d1(t^5) = 0, so
  (t^5 - 1)*A is d1-stable; since n^5 = n mod 5, d1^5 - d1 is central.  An
  element sum over n of t^n*f_n(d1) lies in the ideal it generates iff every
  f_n vanishes on F_5, that is, is divisible by X^5 - X.  Modulo t^5 - 1,
  t^n is t^(n mod 5), so f lies in (t^5 - 1)*A iff its coefficients sum to
  zero over each residue class of exponents.

Seeds drawn inside these ideals can never reach the identity, and every
element a closure accepts, and every witness, must stay inside.  A probe
that projected instead of discarding, or kept a partial product, would
leave the ideal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyltype import (
    MultiIndex,
    UsageError,
    Window,
    assoc_ideal_closure_probe,
    compute_f1,
    d_simplicity_probe,
    lie_ideal_closure_probe,
)
from weyltype.coefficients import AElement, Monomial
from weyltype.operators import WeylElement
from weyltype.probes import REACHES_IDENTITY
from weyltype.scenario import load_bundled


def _t(n):
    return Monomial(((0, n),) if n else ())


def _operator_terms(x):
    """(level, t exponent, coefficient value) of every term of an operator."""
    return [
        (alpha.level(), m.exponent(0), c.value)
        for alpha, u in x.terms.items()
        for m, c in u.terms.items()
    ]


def _in_t_ideal(x):
    if isinstance(x, AElement):
        return all(m.exponent(0) >= 1 for m in x.terms)
    return all(n >= 1 for _, n, _ in _operator_terms(x))


def _in_char2_ideal(x):
    if isinstance(x, AElement):
        return all(m.exponent(0) >= 2 for m in x.terms)
    return all(level >= 2 for level, _, _ in _operator_terms(x))


def _in_char5_ideal(x):
    if isinstance(x, AElement):
        sums = [0] * 5
        for m, c in x.terms.items():
            sums[m.exponent(0) % 5] += c.value
        return all(s % 5 == 0 for s in sums)
    values = {}  # (t exponent, point of F_5) -> f_n(point)
    for level, n, c in _operator_terms(x):
        for point in range(5):
            values[n, point] = values.get((n, point), 0) + c * point**level
    return all(v % 5 == 0 for v in values.values())


def _a(ctx, terms):
    return AElement(ctx, {_t(n): ctx.scalar(c) for n, c in terms})


def _w(ctx, terms):
    out = {}
    for level, n, c in terms:
        out.setdefault(MultiIndex.single(0, level) if level else MultiIndex(), {})[n] = c
    return WeylElement(ctx, {alpha: _a(ctx, u.items()) for alpha, u in out.items()})


@st.composite
def cases(draw):
    """(scenario name, window bounds, level, coefficient seed, operator seed)."""
    name = draw(st.sampled_from(["nonsimple_euler", "char2_poly", "char5_laurent_euler"]))
    coefficient = st.integers(1, 4) if name != "char2_poly" else st.just(1)
    if name == "nonsimple_euler":
        lo, hi, level = 0, draw(st.integers(1, 6)), draw(st.integers(0, 3))
        a_gens = [((n, 1),) for n in range(1, hi + 1)]
        w_gens = [((a, n, 1),) for a in range(level + 1) for n in range(1, hi + 1)]
    elif name == "char2_poly":
        lo, hi, level = 0, draw(st.integers(2, 6)), draw(st.integers(2, 4))
        a_gens = [((n, 1),) for n in range(2, hi + 1)]
        w_gens = [((a, n, 1),) for a in range(2, level + 1) for n in range(hi + 1)]
    else:
        lo = -draw(st.integers(0, 3))
        hi, level = lo + draw(st.integers(5, 7)), draw(st.integers(5, 7))
        a_gens = [((n + 5, 1), (n, -1)) for n in range(lo, hi - 4)]
        w_gens = [
            ((a + 5, n, 1), (a + 1, n, -1)) for a in range(level - 4) for n in range(lo, hi + 1)
        ]
    picks = [
        draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3, unique=True))
        for gens in (a_gens, w_gens)
    ]
    seeds = [
        [term[:-1] + (term[-1] * c,) for gen in pick for c in [draw(coefficient)] for term in gen]
        for pick in picks
    ]
    return name, {"t": (lo, hi)}, level, seeds[0], seeds[1]


VACUOUS_INTERIOR = "^interior sub-window holds no target outside the derivation kernel$"

PREDICATES = {
    "nonsimple_euler": _in_t_ideal,
    "char2_poly": _in_char2_ideal,
    "char5_laurent_euler": _in_char5_ideal,
}


@settings(max_examples=30, deadline=None)
@given(cases())
def test_closures_of_ideal_seeds_stay_in_the_ideal(case):
    name, bounds, level, a_seed, w_seed = case
    ctx = load_bundled(name).ctx
    inside = PREDICATES[name]
    window = Window.for_context(ctx, bounds, max_level=level)
    a_seed, w_seed = _a(ctx, a_seed), _w(ctx, w_seed)
    assert inside(a_seed) and inside(w_seed)
    verdicts = [
        d_simplicity_probe(ctx, a_seed, window),
        assoc_ideal_closure_probe(ctx, w_seed, window),
    ]
    f1 = compute_f1(ctx, window)
    # The margin-1/2 interior of t in [0, 1] at level <= 1 is {1}, and f1 is
    # Q*1 for t*d/dt: a lie_closure verdict there would be vacuous.
    if name == "nonsimple_euler" and bounds["t"][1] < 2 and level < 2:
        with pytest.raises(UsageError, match=VACUOUS_INTERIOR):
            lie_ideal_closure_probe(ctx, w_seed, window, f1)
    else:
        verdicts.append(lie_ideal_closure_probe(ctx, w_seed, window, f1))
    for verdict in verdicts:
        assert verdict.kind != REACHES_IDENTITY
        assert all(inside(step.element) for step in verdict.steps)
        assert all(inside(x) for x in verdict.witness)
