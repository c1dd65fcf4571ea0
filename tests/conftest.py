import pytest

from weyltype import Context, FieldSpec, RATIONAL, probes


@pytest.fixture
def weyl_q() -> Context:
    """Rational polynomial coefficients in t with the usual derivative."""
    ctx = Context(RATIONAL)
    ctx.add_variable("t", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.one()})
    return ctx.freeze()


@pytest.fixture
def euler_q() -> Context:
    """Rational polynomial coefficients in t with t*d/dt (not D-simple)."""
    ctx = Context(RATIONAL)
    ctx.add_variable("t", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.var("t")})
    return ctx.freeze()


@pytest.fixture
def laurent_euler_q() -> Context:
    ctx = Context(RATIONAL)
    ctx.add_variable("t", "laurent")
    ctx.add_derivation("d1", images={"t": ctx.var("t")})
    return ctx.freeze()


@pytest.fixture
def weyl_f2() -> Context:
    ctx = Context(FieldSpec("prime", 2))
    ctx.add_variable("t", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.one()})
    return ctx.freeze()


@pytest.fixture
def weyl_f5() -> Context:
    ctx = Context(FieldSpec("prime", 5))
    ctx.add_variable("t", "polynomial")
    ctx.add_derivation("d1", images={"t": ctx.one()})
    return ctx.freeze()


@pytest.fixture
def laurent_euler_f5() -> Context:
    ctx = Context(FieldSpec("prime", 5))
    ctx.add_variable("t", "laurent")
    ctx.add_derivation("d1", images={"t": ctx.var("t")})
    return ctx.freeze()


@pytest.fixture
def mixed_ctx() -> Context:
    """Two polynomial and two Laurent variables with all derivation flavors."""
    ctx = Context(RATIONAL)
    ctx.add_variable("t1", "polynomial")
    ctx.add_variable("t2", "polynomial")
    ctx.add_variable("x2", "laurent")
    ctx.add_variable("x3", "laurent")
    zero = ctx.zero()
    ctx.add_derivation("d1", images={"t1": ctx.one(), "t2": zero, "x2": zero, "x3": zero})
    ctx.add_derivation("d2", images={"t1": zero, "t2": ctx.one(), "x2": ctx.var("x2"), "x3": zero})
    ctx.add_derivation("d3", images={"t1": zero, "t2": zero, "x2": zero, "x3": ctx.var("x3")})
    return ctx.freeze()


@pytest.fixture
def shift_ctx() -> Context:
    ctx = Context(RATIONAL, variable_cap=16)
    ctx.add_variable("x1", "polynomial")
    ctx.add_variable("x2", "polynomial")
    ctx.add_variable("x3", "polynomial")
    ctx.add_derivation("d1", shift_prefix="x")
    return ctx.freeze()


@pytest.fixture(scope="session")
def term_degrees():
    """The oracle for the graded pieces of the closure walks: the set of the
    degrees (Context.degree) of the terms of an operator x, in a context
    with a grading."""

    def degrees(x) -> frozenset:
        degree = x.ctx.degree
        return frozenset(degree(alpha, m) for alpha, u in x.terms.items() for m in u.terms)

    return degrees


def _one_piece(window, ctx, labels=None):
    """Window.pieces for a grading that puts every label in one piece."""
    labels = window.ad_basis(ctx) if labels is None else labels
    return [0] * len(labels), {(): 0}


@pytest.fixture
def skip_off(monkeypatch):
    """Call it to turn the graded skip of both closure walks off: every
    window then grades its labels into one piece, which skips no step that
    the saturation stop would not, so each walk forms every step."""
    return lambda: monkeypatch.setattr(probes.Window, "pieces", _one_piece)
