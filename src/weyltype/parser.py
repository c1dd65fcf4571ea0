"""Tokenizer, grammar, and evaluator for operator expressions.

Grammar (authoritative):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ['^' ['-'] INT]
    atom   := INT ['/' INT] | IDENT | '(' expr ')'

Multiplication is always explicit (no juxtaposition) and exponents are
integer literals only.  Tokens and syntax-tree nodes are NamedTuples; a
BinOp holds its operator as a field, so trees that differ only in an
operator compare unequal.  Evaluation is bottom-up with every product going
through the normal-ordering multiplication, so results are canonical by
construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .coefficients import AElement, Context, LAURENT, Monomial
from .errors import EvalError, ExponentCapError, ParseError
from .operators import MAX_EXPONENT, WeylElement, w_mul, wderivation, wfrom_a, widentity

INT = "integer"
IDENT = "identifier"
PLUS = "plus"
MINUS = "minus"
STAR = "star"
CARET = "caret"
SLASH = "slash"
LPAREN = "lparen"
RPAREN = "rparen"
END = "end"

_PUNCT = {"+": PLUS, "-": MINUS, "*": STAR, "^": CARET, "/": SLASH, "(": LPAREN, ")": RPAREN}


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token(INT, text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token(IDENT, text[i:j], i))
            i = j
            continue
        kind = _PUNCT.get(c)
        if kind is None:
            raise ParseError(f"unexpected character {c!r}", i)
        out.append(Token(kind, c, i))
        i += 1
    out.append(Token(END, "", n))
    return out


# -- abstract syntax ----------------------------------------------------------


class ScalarLit(NamedTuple):
    numerator: int
    denominator: int
    pos: int


class NameRef(NamedTuple):
    name: str
    pos: int


class Neg(NamedTuple):
    arg: object
    pos: int


class BinOp(NamedTuple):
    op: str  # "+", "-" or "*"
    left: object
    right: object


class Power(NamedTuple):
    base: object
    exponent: int
    pos: int


# Parentheses and unary minus recurse; deeper nesting is rejected rather than
# left to exhaust the interpreter's stack.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.kind} {tok.text!r}", tok.pos)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in (PLUS, MINUS):
            node = BinOp(self.advance().text, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == STAR:
            node = BinOp(self.advance().text, node, self.parse_factor())
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == MINUS:
            self.advance()
            self.enter(tok)
            node = Neg(self.parse_factor(), tok.pos)
            self.depth -= 1
            return node
        node = self.parse_atom()
        if self.peek().kind == CARET:
            caret = self.advance()
            sign = 1
            if self.peek().kind == MINUS:
                self.advance()
                sign = -1
            exp_tok = self.expect(INT)
            return Power(node, sign * int(exp_tok.text), caret.pos)
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == INT:
            self.advance()
            num = int(tok.text)
            if self.peek().kind == SLASH:
                self.advance()
                den_tok = self.expect(INT)
                return ScalarLit(num, int(den_tok.text), tok.pos)
            return ScalarLit(num, 1, tok.pos)
        if tok.kind == IDENT:
            self.advance()
            return NameRef(tok.text, tok.pos)
        if tok.kind == LPAREN:
            self.advance()
            self.enter(tok)
            node = self.parse_expr()
            self.expect(RPAREN)
            self.depth -= 1
            return node
        raise ParseError(
            f"expected one of integer, identifier, '-', '('; found {tok.kind} {tok.text!r}",
            tok.pos,
        )


def parse(tokens: list[Token]):
    p = _Parser(tokens)
    node = p.parse_expr()
    tok = p.peek()
    if tok.kind != END:
        raise ParseError(f"unexpected trailing {tok.kind} {tok.text!r}", tok.pos)
    return node


def parse_text(text: str):
    return parse(tokenize(text))


# -- evaluation ----------------------------------------------------------------


def evaluate(ast, ctx: Context) -> WeylElement:
    """Bottom-up evaluation into normal form."""
    if isinstance(ast, BinOp):
        # Sums and products parse left-deep; fold their left spine in a loop
        # so a long flat chain does not recurse once per operand.
        spine = []
        while isinstance(ast, BinOp):
            spine.append(ast)
            ast = ast.left
        out = evaluate(ast, ctx)
        for node in reversed(spine):
            rhs = evaluate(node.right, ctx)
            if node.op == "*":
                out = w_mul(out, rhs)
            else:
                out = out + rhs if node.op == "+" else out - rhs
        return out
    if isinstance(ast, ScalarLit):
        if ast.denominator == 0:
            raise EvalError("zero denominator", ast.pos)
        if not ctx.spec.value(ast.denominator):
            raise EvalError(f"denominator {ast.denominator} vanishes in {ctx.spec}", ast.pos)
        return widentity(ctx).scale(Fraction(ast.numerator, ast.denominator))
    if isinstance(ast, NameRef):
        if ctx.has_variable(ast.name):
            return wfrom_a(ctx.var(ast.name))
        if ctx.has_derivation(ast.name):
            return wderivation(ctx, ast.name)
        raise EvalError(f"unknown identifier {ast.name!r}", ast.pos)
    if isinstance(ast, Neg):
        return -evaluate(ast.arg, ctx)
    if isinstance(ast, Power):
        n = ast.exponent
        if abs(n) > MAX_EXPONENT:
            raise ExponentCapError(f"exponent {n} exceeds the cap {MAX_EXPONENT}", ast.pos)
        base = evaluate(ast.base, ctx)
        if n < 0:
            base, n = _invert_unit(base, ctx, ast.pos), -n
        return base**n
    raise EvalError(f"unknown syntax node {ast!r}")


def _invert_unit(base: WeylElement, ctx: Context, pos: int) -> WeylElement:
    """Invert a unit of the coefficient algebra: one scalar*monomial term
    whose variables are all Laurent."""
    if not base.is_a_only():
        raise EvalError("negative power of a derivation", pos)
    single = base.a_part().single_term()
    if single is None:
        raise EvalError("negative power of a non-monomial element", pos)
    m, c = single
    inverted = {}
    for i, e in m.exps:
        var = ctx.variables[i]
        if var.kind != LAURENT:
            raise EvalError(f"negative power of polynomial variable {var.name!r}", pos)
        inverted[i] = -e
    return wfrom_a(AElement(ctx, {Monomial.make(inverted): ctx.spec.inv(c)}))


def evaluate_text(text: str, ctx: Context) -> WeylElement:
    return evaluate(parse_text(text), ctx)
