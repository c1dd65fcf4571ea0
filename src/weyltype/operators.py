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

- d^gamma(m) for a monomial m comes from Context.multi_derivative, memoized
  per context on (gamma, m).  Each entry is one derivation applied to the
  entry at gamma - e_last, so a derivative is never recomputed and the
  derivations are applied in declaration order.
- w_mul walks gamma <= alpha depth first, generating each gamma once from
  gamma - e_last and carrying the integer C(alpha, gamma) along.  Where
  d^gamma(v) vanishes so does every derivative above it, and the subtree
  is pruned.  A binomial that is zero in characteristic p skips its term
  but not the subtree, since deeper gammas can still contribute.
- Terms accumulate into one {monomial: scalar} bucket per output index,
  and each bucket becomes one coefficient element at the end.
- lie_bracket runs the same walk twice into one set of buckets, x*y with
  sign +1 and then y*x with sign -1, and skips gamma = 0 in both.  The
  gamma = 0 term of (u, alpha)(v, beta) is u*v at alpha + beta, and that
  of (v, beta)(u, alpha) is v*u there; A is commutative, so they cancel.
  A skipped term applies no derivation, so lazily created variables still
  appear in the order the two products would create them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import (
    AElement,
    Context,
    Monomial,
    _signed_monomial_term,
    format_a_element,
    format_monomial,
    join_signed,
)
from .errors import ExponentCapError, UsageError
from .fields import Scalar
from .multiindex import MINUS_INFINITY, MultiIndex, ZERO_INDEX, compare

# Largest |n| accepted in x^n: a power costs |n| products, so the cap
# bounds the work an expression can ask for.
MAX_EXPONENT = 10_000


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
        s = self.ctx.scalar(c)
        return WeylElement(self.ctx, {a: u * s for a, u in self.terms.items()})

    def __pow__(self, n: int) -> "WeylElement":
        if n < 0:
            raise UsageError("negative operator powers are undefined")
        if n > MAX_EXPONENT:
            raise ExponentCapError(f"exponent {n} exceeds the cap {MAX_EXPONENT}")
        out = widentity(self.ctx)
        for _ in range(n):
            out = w_mul(out, self)
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


def wzero(ctx: Context) -> WeylElement:
    return WeylElement(ctx, {})


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


def apply_multi(ctx: Context, gamma: MultiIndex, a: AElement) -> AElement:
    """Iterated derivation d^gamma applied to a coefficient element.

    Sums the memoized per-monomial derivatives c * d^gamma(m), which apply
    the derivations in declaration order; they commute (validated at context
    freeze), so the order does not affect the value.
    """
    if gamma.is_zero():
        return a
    out: dict[Monomial, Scalar] = {}
    for m, c in a.terms.items():
        for dm, dc in ctx.multi_derivative(gamma, m).terms.items():
            t = dc * c
            cur = out.get(dm)
            out[dm] = t if cur is None else cur + t
    return AElement(ctx, out)


def _accumulate(
    out: dict[MultiIndex, dict[Monomial, Scalar]],
    x: WeylElement,
    y: WeylElement,
    sign: int,
    skip_gamma_zero: bool,
) -> None:
    """Add sign * x*y into the per-index buckets of `out`.

    With skip_gamma_zero the gamma = 0 terms u*v at alpha + beta are left
    out; lie_bracket does so because they cancel between x*y and y*x.
    """
    ctx = x.ctx
    spec = ctx.spec
    for alpha, u in x.terms.items():
        uterms = u.terms.items()
        for beta, v in y.terms.items():
            top = alpha.add(beta)
            # A child raises the last nonzero entry of gamma or opens a later
            # one, so each gamma is generated once, from gamma - e_last.
            stack = [(ZERO_INDEX, sign)]  # (gamma, sign * C(alpha, gamma) over Z)
            while stack:
                gamma, binom = stack.pop()
                if gamma.entries or not skip_gamma_zero:
                    dv = apply_multi(ctx, gamma, v)
                    if not dv.terms:
                        continue
                    c = spec.from_int(binom)
                    if c:
                        bucket = out.setdefault(top.sub(gamma), {})
                        for dm, dc in dv.terms.items():
                            w = dc * c
                            for um, uc in uterms:
                                m = um * dm
                                t = uc * w
                                cur = bucket.get(m)
                                bucket[m] = t if cur is None else cur + t
                entries = gamma.entries
                last, g = entries[-1] if entries else (-1, 0)
                for i, a in alpha.entries:
                    if i == last and g < a:
                        child = MultiIndex(entries[:-1] + ((i, g + 1),))
                        stack.append((child, binom * (a - g) // (g + 1)))
                    elif i > last:
                        stack.append((MultiIndex(entries + ((i, 1),)), binom * a))


def _from_buckets(ctx: Context, out: dict[MultiIndex, dict[Monomial, Scalar]]) -> WeylElement:
    return WeylElement(ctx, {idx: AElement(ctx, bucket) for idx, bucket in out.items()})


def w_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """Normal-ordering product; the result is again in normal form."""
    x._check(y)
    out: dict[MultiIndex, dict[Monomial, Scalar]] = {}
    _accumulate(out, x, y, 1, False)
    return _from_buckets(x.ctx, out)


def lie_bracket(x: WeylElement, y: WeylElement) -> WeylElement:
    """Commutator x*y - y*x, accumulated in one pass without its gamma = 0 terms."""
    x._check(y)
    out: dict[MultiIndex, dict[Monomial, Scalar]] = {}
    _accumulate(out, x, y, 1, True)
    _accumulate(out, y, x, -1, True)
    return _from_buckets(x.ctx, out)


def act(x: WeylElement, a: AElement) -> AElement:
    """Natural action on the coefficient algebra; an algebra homomorphism."""
    if a.ctx is not x.ctx:
        raise UsageError("mixed contexts in action")
    out = x.ctx.zero()
    for alpha, u in x.terms.items():
        da = apply_multi(x.ctx, alpha, a)
        if not da.is_zero():
            out = out + u * da
    return out


@dataclass(frozen=True)
class LeadingData:
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


def support(x: WeylElement) -> set[MultiIndex]:
    return set(x.terms)


def split_constant(y: WeylElement) -> tuple[WeylElement, AElement]:
    """Split off the zero-index coefficient: y = y_star + y0."""
    y0 = y.a_part()
    y_star = WeylElement(y.ctx, {a: u for a, u in y.terms.items() if not a.is_zero()})
    return y_star, y0


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
            m, c = single
            negative = c.is_negative()
            mag = c.abs()
            pieces = []
            if not mag.is_one():
                pieces.append(str(mag))
            if not m.is_one():
                pieces.append(format_monomial(ctx, m))
            pieces.append(dpart)
            parts.append((negative, "*".join(pieces)))
    return join_signed(parts)

