import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from weyltype import EvalError, ParseError, evaluate_text, w_mul, widentity
from weyltype.operators import act, wderivation, wfrom_a
from weyltype.checks import SampleBounds, random_a, random_weyl
from weyltype.operators import format_weyl
from weyltype.scenario import load_bundled
from weyltype.parser import (
    MAX_NESTING,
    BinOp,
    NameRef,
    Neg,
    Power,
    ScalarLit,
    parse_text,
    tokenize,
)


def kinds(text):
    return [tok.kind for tok in tokenize(text)]


def test_tokenize_examples():
    assert kinds("d1*t^2") == ["identifier", "star", "identifier", "caret", "integer", "end"]
    assert kinds("t^-1") == ["identifier", "caret", "minus", "integer", "end"]
    toks = tokenize("  a_1 + 23 ")
    assert [(t.kind, t.text, t.pos) for t in toks[:-1]] == [
        ("identifier", "a_1", 2),
        ("plus", "+", 6),
        ("integer", "23", 8),
    ]


def test_tokenize_unknown_character():
    with pytest.raises(ParseError) as err:
        tokenize("@")
    assert err.value.pos == 0


def test_parse_shapes():
    ast = parse_text("d + t*d^2")
    assert isinstance(ast, BinOp) and ast.op == "+"
    assert ast.left == NameRef("d", 0)
    assert isinstance(ast.right, BinOp) and ast.right.op == "*"
    assert isinstance(ast.right.right, Power) and ast.right.right.exponent == 2

    ast = parse_text("(d+t)^2")
    assert isinstance(ast, Power) and ast.base.op == "+"

    ast = parse_text("1/2*t - -t")
    assert ast.op == "-" and isinstance(ast.right, Neg)
    assert ast.left.op == "*" and ast.left.left == ScalarLit(1, 2, 0)


def test_trees_differing_only_in_their_operator_are_unequal():
    trees = [parse_text(text) for text in ("a+b", "a-b", "a*b")]
    assert len(set(trees)) == 3
    assert trees[0] != trees[1] != trees[2] != trees[0]


def test_no_juxtaposition():
    with pytest.raises(ParseError):
        parse_text("d d")
    with pytest.raises(ParseError):
        parse_text("2t")


def test_parse_error_positions_are_stable():
    for _ in range(3):
        with pytest.raises(ParseError) as err:
            parse_text("t + * 2")
        assert err.value.pos == 4


def test_exponent_must_be_integer_literal():
    with pytest.raises(ParseError):
        parse_text("t^(1+1)")
    with pytest.raises(ParseError):
        parse_text("t^d")


def test_eval_goldens(weyl_q):
    ctx = weyl_q
    d = wderivation(ctx, "d1")
    t = wfrom_a(ctx.var("t"))
    assert evaluate_text("d1*t", ctx) == w_mul(t, d) + widentity(ctx)
    expected = w_mul(d, d) + w_mul(t, d).scale(2) + wfrom_a(ctx.var("t", 2)) + widentity(ctx)
    assert evaluate_text("(d1+t)^2", ctx) == expected
    assert format_weyl(evaluate_text("(d1+t)^2", ctx)) == "d1^2 + 2*t*d1 + t^2 + 1"


def test_eval_laurent_inverse(laurent_euler_q):
    ctx = laurent_euler_q
    assert evaluate_text("t^-1*t", ctx) == widentity(ctx)
    assert evaluate_text("(2*t)^-1", ctx) == wfrom_a(ctx.var("t", -1) * Fraction(1, 2))


def test_eval_rejects_bad_negative_powers(weyl_q, laurent_euler_q):
    with pytest.raises(EvalError):
        evaluate_text("t^-1", weyl_q)  # polynomial variable
    with pytest.raises(EvalError):
        evaluate_text("d1^-1", weyl_q)  # derivation
    with pytest.raises(EvalError):
        evaluate_text("(t+1)^-1", laurent_euler_q)  # not a unit monomial


def test_eval_unknown_identifier(weyl_q):
    with pytest.raises(EvalError) as err:
        evaluate_text("d1*x", weyl_q)
    assert "x" in str(err.value)


def test_scalar_literals(weyl_q, weyl_f5):
    assert evaluate_text("3/4", weyl_q) == widentity(weyl_q).scale(Fraction(3, 4))
    # bare integers reduce mod p; quotients use the field inverse
    assert evaluate_text("7", weyl_f5) == widentity(weyl_f5).scale(2)
    assert evaluate_text("1/2", weyl_f5) == widentity(weyl_f5).scale(3)
    with pytest.raises(EvalError):
        evaluate_text("1/5", weyl_f5)


def test_two_derivation_textual_form(mixed_ctx):
    # parenthesized multi-term coefficients, bare derivation terms, and a
    # trailing coefficient term all round-trip through one canonical string
    ctx = mixed_ctx
    text = "(t1^2 + 1)*d1^2 + 3*d2 + t1"
    element = evaluate_text(text, ctx)
    assert format_weyl(element) == text
    assert evaluate_text(format_weyl(element), ctx) == element


def test_zero_parses_and_prints(weyl_q):
    zero = evaluate_text("0", weyl_q)
    assert zero.is_zero()
    assert format_weyl(zero) == "0"
    assert evaluate_text(format_weyl(zero), weyl_q) == zero


@pytest.mark.parametrize(
    "fixture_name", ["weyl_q", "mixed_ctx", "weyl_f2", "laurent_euler_f5", "euler_q"]
)
def test_print_parse_roundtrip(fixture_name, request):
    ctx = request.getfixturevalue(fixture_name)
    rng = random.Random(f"roundtrip:{fixture_name}")
    bounds = SampleBounds(max_degree=3, max_level=3, max_terms=3)
    for _ in range(120):
        x = random_weyl(rng, ctx, bounds)
        assert evaluate_text(format_weyl(x), ctx) == x


# Independent oracle: interpret the syntax tree directly as an operator on the
# coefficient algebra (composition of multiplications and derivations) without
# going through the normal-ordered product.
def interpret_as_operator(ast, ctx):
    if isinstance(ast, ScalarLit):
        spec = ctx.spec
        c = spec.value(ast.numerator)
        if ast.denominator != 1:
            c = spec.value(c * spec.inv(spec.value(ast.denominator)))
        return lambda a: a * c
    if isinstance(ast, NameRef):
        if ctx.has_variable(ast.name):
            u = ctx.var(ast.name)
            return lambda a: u * a
        d = ctx.derivation(ast.name)
        return lambda a: ctx.apply_derivation(d, a)
    if isinstance(ast, Neg):
        inner = interpret_as_operator(ast.arg, ctx)
        return lambda a: -inner(a)
    if isinstance(ast, BinOp):
        left = interpret_as_operator(ast.left, ctx)
        right = interpret_as_operator(ast.right, ctx)
        if ast.op == "+":
            return lambda a: left(a) + right(a)
        if ast.op == "-":
            return lambda a: left(a) - right(a)
        return lambda a: left(right(a))
    if isinstance(ast, Power):
        assert ast.exponent >= 0
        base = interpret_as_operator(ast.base, ctx)

        def power(a):
            for _ in range(ast.exponent):
                a = base(a)
            return a

        return power
    raise AssertionError(f"unexpected node {ast}")


@pytest.mark.parametrize(
    "expression",
    [
        "d1*t",
        "(d1+t)^2",
        "t*d1*t*d1",
        "d1^3*t^2 - 2*t*d1 + 1/3",
        "(t^2 + 1)*d1^2 + 3*d1 + t",
        "-(d1*t - t*d1)^2",
    ],
)
def test_evaluation_respects_the_action(expression, weyl_q):
    ctx = weyl_q
    ast = parse_text(expression)
    operator = interpret_as_operator(ast, ctx)
    element = evaluate_text(expression, ctx)
    rng = random.Random(f"dual:{expression}")
    bounds = SampleBounds(max_degree=4, max_terms=3)
    for _ in range(20):
        a = random_a(rng, ctx, bounds)
        assert act(element, a) == operator(a)


def test_nesting_depth_is_capped():
    assert parse_text("(" * MAX_NESTING + "d1" + ")" * MAX_NESTING) == NameRef("d1", MAX_NESTING)
    assert isinstance(parse_text("-" * MAX_NESTING + "d1"), Neg)
    for text in (
        "(" * (MAX_NESTING + 1) + "d1" + ")" * (MAX_NESTING + 1),
        "(" * 2000 + "d1" + ")" * 2000,
        "-" * 2000 + "d1",
        "(-" * 60 + "d1" + ")" * 60,
    ):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_text(text)


def test_long_flat_chains_evaluate_without_deep_recursion(weyl_q):
    assert format_weyl(evaluate_text(" + ".join(["d1"] * 3000), weyl_q)) == "3000*d1"
    assert format_weyl(evaluate_text(" - ".join(["t"] * 3001), weyl_q)) == "-2999*t"
    assert format_weyl(evaluate_text("*".join(["t"] * 1500), weyl_q)) == "t^1500"
    assert format_weyl(evaluate_text("d1*t*t - t*t*d1", weyl_q)) == "2*t"


def test_benchmark_expressions_stay_within_the_term_cap():
    # The benchmark's normalize expressions, with their recorded normal forms
    # (at most 96 terms); the product term cap refuses none of them.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "normalize.json"
    for scenario_name, forms in json.loads(path.read_text()).items():
        ctx = load_bundled(scenario_name).ctx
        for expression, form in forms.items():
            assert format_weyl(evaluate_text(expression, ctx)) == form
