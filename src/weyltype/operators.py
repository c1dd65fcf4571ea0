"""Elements of the operator algebra built from coefficients and derivation
powers, with the normal-ordering product, the induced Lie bracket, the action
on the coefficient algebra, and the leading-term toolkit.

Every element is kept in normal form: a finite map from derivation
multi-indices to coefficient-algebra elements.  The product of two basis
terms is

    (u, alpha) * (v, beta) =
        sum over gamma <= alpha of
            C(alpha, gamma) * u * d^gamma(v)  at index  alpha + beta - gamma

where d^gamma is the iterated application of the registered derivations.
Extending bilinearly gives an associative product, and the natural action on
the coefficient algebra becomes an algebra homomorphism.

Evaluation (w_mul, lie_bracket, act, apply_multi):

- Each coefficient element memoizes d^gamma of itself by gamma.  A miss
  applies the last derivation of gamma to d^(gamma - e_last) of the
  element, itself memoized, so a derivative is never recomputed and the
  derivations are applied in declaration order.  The one derivation step
  is apply_multi, which sums the first derivatives of the monomials, each
  cached per context on (derivation index, monomial).  Elements are never
  mutated, so an entry stays valid.  A closure probe brackets the same
  accepted elements with the same generators over and over, and
  theta_kernel reads d^alpha of each window monomial from this memo, once
  per alpha, for all the columns at alpha.
- w_mul and lie_bracket share one walk over the gammas of every term pair.
  It reads them from the context's gamma tree for alpha: a node holds
  gamma, alpha - gamma and C(alpha, gamma) as a plain field value (with its
  negative, for the y*x half of a bracket), or None where the binomial is
  zero mod p.
  A node's children raise the last entry of gamma or open a later one, so
  each gamma is generated once, from gamma - e_last; they are built on the
  node's first visit, so a pruned subtree is never built.  Where d^gamma(v)
  vanishes so does every derivative above it, and the subtree is pruned.
  A binomial that is zero in characteristic p skips its term but not the
  subtree, since deeper gammas can still contribute.
- Each node also maps beta to the output index beta + (alpha - gamma), so a
  repeated product builds no multi-index at all.  The trees hang off a
  plain dict on the Context and die with it; that dict and each node's
  output map start over once they reach coefficients.PRODUCT_MEMO_CAP.
- The walk is level-synchronous: each step moves every started term pair
  one gamma level deeper.  mul_terms accumulates the terms into one
  {monomial: value} bucket per output index, and takes each monomial
  product from the context's product memo, so a product that a later
  bracket forms again costs one identity-hashed lookup.
- lie_bracket walks the pairs of x*y with sign +1 and those of y*x with
  sign -1 together and skips gamma = 0 in both.  The gamma = 0 term of
  (u, alpha)(v, beta) is u*v at alpha + beta, and that of (v, beta)(u, alpha)
  is v*u there; A is commutative, so they cancel.  w_mul adds its gamma = 0
  terms, whose binomial is 1, while it schedules the pairs.
- Constant coefficients: a derivation kills constants, so d^gamma(c) = 0
  for every gamma > 0.  A pair whose v has 1 as its only monomial therefore
  contributes its gamma = 0 term u*c to a product and nothing to a bracket.
  The walk decides this once per term pair, before any gamma, and starts
  no gamma tree for such a pair: it builds and visits no child and derives
  nothing.  So d1^k * d1 and each step of (d1+d2+d3)^n derive nothing, and
  in a bracket with a pure derivation the half with it on the right drops.
- Without a window guard, every pair starts at once and the walk runs to
  the end.  lie_bracket takes a guard (max_level, monomials): a pair with
  |alpha| + |beta| = s starts at output level s, so step by step the walk
  fills output levels from the top down, each final when its step ends.
  Once a finished level holds a nonzero term outside the window (a level
  above max_level, or a monomial not in the set), the bracket leaves the
  window and the walk returns None at once; a bracket that fits is returned
  whole.  The top level of x*y - y*x cancels, and the next one down is the
  Poisson bracket of the two principal symbols.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .coefficients import (
    ONE_MONOMIAL,
    AElement,
    Context,
    Monomial,
    _signed_monomial_term,
    capped,
    format_a_element,
    join_signed,
    mul_terms,
    nonzero,
)
from .errors import ExponentCapError, TermCapError, UsageError
from .multiindex import MINUS_INFINITY, MultiIndex, ZERO_INDEX, compare

# Largest |n| accepted in x^n: a power costs |n| products, so the cap
# bounds the work an expression can ask for.
MAX_EXPONENT = 10_000
# Most terms a power, or a product in an expression, may have.  A product
# costs at least the product of its factors' term counts, and (t + d1)^n
# has about n^2/4 terms: uncapped, (t + d1)^200 ran 1.7 s, and at the cap
# (t + d1)^88 is refused after 0.15 s (2 vCPUs, Python 3.11).
MAX_TERMS = 2_000
# Most term pairs (the product of the factors' term counts) such a product
# may walk, checked before it is formed, since its cost grows with them:
# (t + d1)^60*(t + d1)^60 walks 961*961 pairs and ran 8.3 s, and
# (t + d1)^40*(t + d1)^40 walks 194,481 in 1.2 s (2 vCPUs, Python 3.11).
# A power whose base has at most 50 terms never reaches it.
MAX_TERM_PAIRS = 100_000


class WeylElement:
    """Sparse normal-form operator: multi-index -> coefficient element."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict[MultiIndex, AElement]):
        self.ctx = ctx
        self.terms = {a: u for a, u in terms.items() if not u.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "WeylElement"):
        if not isinstance(other, WeylElement):
            raise UsageError(f"expected an operator element, got {other!r}")
        if other.ctx is not self.ctx:
            raise UsageError("mixed contexts in operator arithmetic")

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check(other)
        out = dict(self.terms)
        for a, u in other.terms.items():
            cur = out.get(a)
            out[a] = u if cur is None else cur + u
        return WeylElement(self.ctx, out)

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.ctx, {a: -u for a, u in self.terms.items()})

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return w_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, WeylElement):
            return w_mul(other, self)
        return self.scale(other)

    def scale(self, c) -> "WeylElement":
        s = self.ctx.spec.value(c)
        return WeylElement(self.ctx, {a: u * s for a, u in self.terms.items()})

    def __pow__(self, n: int) -> "WeylElement":
        if n < 0:
            raise UsageError("negative operator powers are undefined")
        if n > MAX_EXPONENT:
            raise ExponentCapError(f"exponent {n} exceeds the cap {MAX_EXPONENT}")
        out = widentity(self.ctx)
        for _ in range(n):
            out = capped_product(out, self)
        return out

    def a_part(self) -> AElement:
        """Coefficient at the zero multi-index."""
        return self.terms.get(ZERO_INDEX, self.ctx.zero())

    def is_a_only(self) -> bool:
        return all(a.is_zero() for a in self.terms)

    def sorted_terms(self) -> list[tuple[MultiIndex, AElement]]:
        """Descending graded order on the derivation part; deterministic."""
        return sorted(
            self.terms.items(),
            key=lambda t: (t[0].level(), tuple(t[0].entries)),
            reverse=True,
        )

    def __str__(self) -> str:
        return format_weyl(self)

    def __repr__(self) -> str:
        return f"<W {format_weyl(self)}>"


def _term_count(x: WeylElement) -> int:
    return sum(len(u.terms) for u in x.terms.values())


def capped_product(x: WeylElement, y: WeylElement) -> WeylElement:
    """w_mul(x, y); TermCapError instead when the factors' term counts
    multiply past MAX_TERM_PAIRS (before any work) or the product has more
    than MAX_TERMS terms."""
    a, b = _term_count(x), _term_count(y)
    if a * b > MAX_TERM_PAIRS:
        raise TermCapError(
            f"product of {a}-term and {b}-term factors, above the cap {MAX_TERM_PAIRS} term pairs"
        )
    z = w_mul(x, y)
    n = _term_count(z)
    if n > MAX_TERMS:
        raise TermCapError(f"product has {n} terms, above the cap {MAX_TERMS}")
    return z


def widentity(ctx: Context) -> WeylElement:
    return WeylElement(ctx, {ZERO_INDEX: ctx.one()})


def wfrom_a(u: AElement) -> WeylElement:
    return WeylElement(u.ctx, {ZERO_INDEX: u})


def wbasis(ctx: Context, alpha: MultiIndex, coefficient: AElement | None = None) -> WeylElement:
    u = coefficient if coefficient is not None else ctx.one()
    return WeylElement(ctx, {alpha: u})


def wderivation(ctx: Context, name: str) -> WeylElement:
    d = ctx.derivation(name)
    return wbasis(ctx, MultiIndex.single(ctx.derivation_index(d)))


def apply_multi(ctx: Context, gamma: MultiIndex, terms: dict) -> dict:
    """Iterated derivation d^gamma applied to raw coefficient terms.

    Applies the derivations one at a time, in declaration order; they commute
    (validated at context freeze), so the order does not affect the value.
    The result holds no zero if `terms` holds none.
    """
    for i, e in gamma.entries:
        d = ctx.derivations[i]
        for _ in range(e):
            terms = nonzero(ctx._derive(d, terms))
    return terms


def _partial(ctx: Context, gamma: MultiIndex, v: AElement) -> dict:
    """Raw terms of d^gamma(v), memoized on v; the caller must not mutate them.

    A miss derives d^(gamma - e_last)(v), found the same way, once more.
    """
    memo = v._partials
    if memo is None:
        memo = v._partials = {ZERO_INDEX: v.terms}
    dv = memo.get(gamma)
    if dv is not None:
        return dv
    pending = []  # (gamma, its last derivation index), top down
    while dv is None:
        *head, (i, e) = gamma.entries
        pending.append((gamma, i))
        gamma = MultiIndex(tuple(head) + (((i, e - 1),) if e > 1 else ()))
        dv = memo.get(gamma)
    for g, i in reversed(pending):
        if dv:
            dv = apply_multi(ctx, MultiIndex(((i, 1),)), dv)
        memo[g] = dv
    return dv


def _leaves_window(level: int, buckets: dict, guard: tuple[int, frozenset]) -> bool:
    """Whether a finished level holds a nonzero term outside the guarded window."""
    max_level, inside = guard
    for bucket in buckets.values():
        for m, c in bucket.items():
            if c and (level > max_level or m not in inside):
                return True
    return False


class _GammaNode:
    """One gamma <= alpha of the walk, with the index arithmetic its terms need.

    `rest` is alpha - gamma and `outputs` maps beta to the output index
    beta + rest, at most PRODUCT_MEMO_CAP of them; `c` is C(alpha, gamma) as
    a plain field value and `neg_c` its negative, both None when the binomial
    vanishes mod p.  The children are built on the first visit, so a subtree
    the walk prunes is never built.
    """

    __slots__ = ("alpha", "gamma", "rest", "outputs", "binom", "c", "neg_c", "children")

    def __init__(self, spec, alpha: MultiIndex, gamma: MultiIndex, binom: int):
        self.alpha = alpha
        self.gamma = gamma
        self.rest = alpha.sub(gamma)
        self.outputs = {}
        self.binom = binom
        c = spec.value(binom)
        self.c = c if c else None
        self.neg_c = spec.value(-binom) if c else None
        self.children = None

    def expand(self, spec) -> list:
        """A child raises the last nonzero entry of gamma or opens a later one,
        so each gamma is generated once, from gamma - e_last."""
        entries, alpha, binom = self.gamma.entries, self.alpha, self.binom
        last, g = entries[-1] if entries else (-1, 0)
        children = []
        for i, a in alpha.entries:
            if i == last and g < a:
                child = MultiIndex(entries[:-1] + ((i, g + 1),))
                children.append(_GammaNode(spec, alpha, child, binom * (a - g) // (g + 1)))
            elif i > last:
                child = MultiIndex(entries + ((i, 1),))
                children.append(_GammaNode(spec, alpha, child, binom * a))
        self.children = children
        return children


def _walk(ctx: Context, products: tuple, skip_gamma_zero: bool, guard) -> WeylElement | None:
    """Sum sign * x*y over the (x, y, sign) in `products`, one gamma level per step.

    Each step moves every started term pair one gamma level deeper and adds
    its terms u * C(alpha, gamma) * d^gamma(v) at beta + (alpha - gamma).
    With skip_gamma_zero (a bracket) the gamma = 0 terms u*v are left out,
    since they cancel; otherwise (a product, every sign +1) they are added
    while the pairs are scheduled.  A pair whose v is a constant has no
    other terms and starts no walk (see the module docstring).  Unguarded,
    every other pair starts at the children of its root.  The guard, which
    only a bracket takes, schedules the roots by output level instead, and
    the walk returns None once a finished level leaves the window.
    """
    spec = ctx.spec
    p = spec.p
    trees = ctx._gamma_trees
    monomial_products = ctx._products
    out: dict[MultiIndex, dict[Monomial, object]] = {}
    # One entry per gamma of this step: (gamma node, beta, terms of u, v, sign).
    pairs = []
    for x, y, sign in products:
        yterms = y.terms.items()
        for alpha, u in x.terms.items():
            root = trees.get(alpha)
            if root is None:
                root = capped(trees)[alpha] = _GammaNode(spec, alpha, ZERO_INDEX, 1)
            uterms = u.terms
            outputs = root.outputs
            children = root.children
            for beta, v in yterms:
                vterms = v.terms
                if not skip_gamma_zero:
                    idx = outputs.get(beta)
                    if idx is None:
                        idx = capped(outputs)[beta] = beta.add(alpha)
                    mul_terms(out.setdefault(idx, {}), vterms, uterms, monomial_products, p)
                if len(vterms) == 1 and ONE_MONOMIAL in vterms:
                    continue  # a constant v: d^gamma(v) = 0 for every gamma > 0
                if guard is not None:
                    pairs.append((root, beta, uterms, v, sign))
                    continue
                if children is None:
                    children = root.expand(spec)
                for child in children:
                    pairs.append((child, beta, uterms, v, sign))
    if guard is None:
        active, waiting = pairs, []
    else:
        # Highest |alpha| + |beta| first; the stable sort keeps pair order.
        active = []
        levels = ((p[0].alpha.level() + p[1].level(), p) for p in pairs)
        waiting = sorted(levels, key=itemgetter(0), reverse=True)
    nxt = level = 0
    while active or nxt < len(waiting):
        if guard is None:
            finished = out
        else:
            level = level - 1 if active else waiting[nxt][0]
            while nxt < len(waiting) and waiting[nxt][0] == level:
                active.append(waiting[nxt][1])
                nxt += 1
            finished = {}
        deeper = []
        for node, beta, uterms, v, sign in active:
            gamma = node.gamma
            if gamma.entries:  # a root comes here only in a guarded bracket
                dv = _partial(ctx, gamma, v)
                if not dv:
                    continue
                c = node.c if sign > 0 else node.neg_c
                if c is not None:
                    outputs = node.outputs
                    idx = outputs.get(beta)
                    if idx is None:
                        idx = capped(outputs)[beta] = beta.add(node.rest)
                    scale = None if c == 1 else c  # a unit binomial scales nothing
                    mul_terms(finished.setdefault(idx, {}), dv, uterms, monomial_products, p, scale)
            children = node.children
            if children is None:
                children = node.expand(spec)
            for child in children:
                deeper.append((child, beta, uterms, v, sign))
        active = deeper
        if guard is not None:
            if _leaves_window(level, finished, guard):
                return None
            out.update(finished)  # output levels are disjoint
    return _from_buckets(ctx, out)


def _from_buckets(ctx: Context, out: dict[MultiIndex, dict[Monomial, object]]) -> WeylElement:
    return WeylElement(ctx, {idx: AElement(ctx, bucket) for idx, bucket in out.items()})


def w_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """Normal-ordering product; the result is again in normal form."""
    x._check(y)
    return _walk(x.ctx, ((x, y, 1),), False, None)


def lie_bracket(
    x: WeylElement, y: WeylElement, guard: tuple[int, frozenset] | None = None
) -> WeylElement | None:
    """Commutator x*y - y*x, accumulated in one walk without its gamma = 0 terms.

    With a window guard (max_level, monomials) a bracket that leaves the
    window is None.
    """
    x._check(y)
    return _walk(x.ctx, ((x, y, 1), (y, x, -1)), True, guard)


def act(x: WeylElement, a: AElement) -> AElement:
    """Natural action on the coefficient algebra; an algebra homomorphism."""
    if a.ctx is not x.ctx:
        raise UsageError("mixed contexts in action")
    ctx = x.ctx
    out: dict[Monomial, object] = {}
    for alpha, u in x.terms.items():
        mul_terms(out, u.terms, _partial(ctx, alpha, a), ctx._products, ctx.spec.p)
    return AElement(ctx, out)


class LeadingData(NamedTuple):
    """Leading term, leading degree, leading level; level is -inf for zero."""

    ld: tuple[MultiIndex, AElement] | None
    deg: MultiIndex | None
    lev: object


def leading(x: WeylElement) -> LeadingData:
    if x.is_zero():
        return LeadingData(ld=None, deg=None, lev=MINUS_INFINITY)
    beta = None
    for alpha in x.terms:
        if beta is None or compare(beta, alpha) < 0:
            beta = alpha
    return LeadingData(ld=(beta, x.terms[beta]), deg=beta, lev=beta.level())


# -- printing ---------------------------------------------------------------


def format_multi_index(ctx: Context, alpha: MultiIndex) -> str:
    if alpha.is_zero():
        return "1"
    parts = []
    for i, e in alpha.entries:
        name = ctx.derivations[i].name
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_weyl(x: WeylElement) -> str:
    """Canonical textual form; round-trips exactly through the parser."""
    ctx = x.ctx
    parts: list[tuple[bool, str]] = []
    for alpha, u in x.sorted_terms():
        if alpha.is_zero():
            parts.extend(_signed_monomial_term(ctx, m, c) for m, c in u.sorted_terms())
            continue
        dpart = format_multi_index(ctx, alpha)
        single = u.single_term()
        if single is None:
            parts.append((False, f"({format_a_element(u)})*{dpart}"))
        else:
            negative, text = _signed_monomial_term(ctx, *single)
            parts.append((negative, dpart if text == "1" else f"{text}*{dpart}"))
    return join_signed(parts)

