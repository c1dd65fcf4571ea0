"""The commutative coefficient algebra: sparse multivariate polynomial and
Laurent arithmetic over an exact field, plus derivations given by images on
generators and extended by the Leibniz rule.

A Context owns the field, the declared variables, the registered
derivations and four caches: the first derivatives d(m) of monomials, the
generator images d(x_i) they are built from, the monomial-product memo that
mul_terms reads, and the gamma trees of the product walk in operators.py.
Contexts are frozen after validation; the only mutation ever allowed
afterwards is the lazy, append-only registration of new variables by a
shift-rule derivation (bounded by a hard cap), and the caches only gain
entries, apart from the product memo, which starts over once it reaches a
fixed size.  Freezing also finds the exponent grading of the derivations,
if they have one (Context._grading); the bracket closure uses it to skip
steps.  Images and derivative-cache entries are raw {Monomial: value}
dicts, and nothing in the caches points back at the Context, so
refcounting alone frees a dropped Context.  Each AElement may also
memoize its own derivatives (see AElement); they die with the element.

A value is a plain field value (see fields.py): over Q an int, or a
Fraction when it is not integral; over F_p an int in [0, p).  AElement.terms
holds the same.  The kernels pass such raw dicts around and sum them with
add_terms and mul_terms only, which take the modulus p (None over Q) and
reduce inline.  Their buffers may hold cancelled zeros and integral
Fractions; nonzero drops the one and turns the other into an int, so an
AElement, built where a public function returns one, and a cache entry
never hold either.

VariableSpec, a fields._Value record, and the hash-consed Monomial (see
multiindex.py) are immutable fields._Frozen subclasses.
"""

from __future__ import annotations

import re
from functools import partial

from .errors import UsageError, ValidationError, VariableCapError
from .fields import FieldSpec, _Frozen, _Value, _set_attribute
from .multiindex import MultiIndex, _forget, _KeyedRef, intern, merge_exponents

POLYNOMIAL = "polynomial"
LAURENT = "laurent"

DEFAULT_VARIABLE_CAP = 64

# The monomial-product memo and the derivative cache are each cleared on a
# miss once they hold this many entries; each entry is a pure function of
# its key, so only work changes.
PRODUCT_MEMO_CAP = 1 << 15


def add_terms(out: dict, terms: dict, p: int | None, c=None) -> None:
    """out += c * terms mod p (p None over Q), with c = None meaning 1; a
    cancelled zero stays in out."""
    for m, t in terms.items():
        if c is not None:
            t = t * c
        cur = out.get(m)
        if cur:
            t = cur + t
        out[m] = t if p is None else t % p


def mul_terms(out: dict, left: dict, right: dict, products: dict, p: int | None, c=None) -> None:
    """out += c * left * right mod p (p None over Q), with c = None meaning 1;
    a cancelled zero stays in out.

    `products` is the context's monomial-product memo, (m1, m2) -> m1 * m2,
    cleared on a miss once it holds PRODUCT_MEMO_CAP entries.
    """
    for m1, c1 in left.items():
        if c is not None:
            c1 = c1 * c
        for m2, c2 in right.items():
            m = products.get((m1, m2))
            if m is None:
                m = memo_product(products, m1, m2)
            t = c1 * c2
            cur = out.get(m)
            if cur:
                t = cur + t
            out[m] = t if p is None else t % p


def memo_product(products: dict, m1: "Monomial", m2: "Monomial") -> "Monomial":
    """m1 * m2, stored in the memo `products` on a miss of its lookup; the
    memo is cleared first once it holds PRODUCT_MEMO_CAP entries."""
    if len(products) >= PRODUCT_MEMO_CAP:
        products.clear()
    m = products[(m1, m2)] = m1 * m2
    return m


def nonzero(terms: dict) -> dict:
    """The terms of an accumulation buffer without its cancelled zeros, with
    every integral Fraction turned into an int."""
    return {
        m: c if c.__class__ is int or c.denominator != 1 else c.numerator
        for m, c in terms.items()
        if c
    }


class VariableSpec(_Value):
    """A coefficient variable; `declared` is False for one a shift rule registered."""

    __slots__ = ("name", "kind", "index", "declared")

    def __init__(self, name: str, kind: str, index: int, declared: bool):
        if kind not in (POLYNOMIAL, LAURENT):
            raise UsageError(f"unknown variable kind {kind!r}")
        for attr, value in zip(self.__slots__, (name, kind, index, declared)):
            _set_attribute(self, attr, value)

    def __reduce__(self):
        return VariableSpec, (self.name, self.kind, self.index, self.declared)


# exps -> weak reference to the one live Monomial with those exponents.
_MONOMIALS: dict[tuple, _KeyedRef] = {}
_forget_monomial = partial(_forget, _MONOMIALS)


class Monomial(_Frozen):
    """Sorted tuple of (variable index, nonzero exponent) pairs; () is 1.

    Immutable and hash-consed like MultiIndex: equal monomials are one
    object, so the accumulation buffers and the derivative cache, which
    look up every monomial product, compare by identity.
    """

    __slots__ = ("exps", "__weakref__")

    def __new__(cls, exps: tuple[tuple[int, int], ...] = ()):
        ref = _MONOMIALS.get(exps)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = object.__new__(cls)
        _set_attribute(self, "exps", exps)
        return intern(_MONOMIALS, exps, self, _forget_monomial)

    def __reduce__(self):
        return Monomial, (self.exps,)

    @staticmethod
    def make(mapping) -> "Monomial":
        items = dict(mapping)
        return Monomial(tuple((int(i), int(e)) for i, e in sorted(items.items()) if e))

    def exponent(self, index: int) -> int:
        for i, e in self.exps:
            if i == index:
                return e
        return 0

    def is_one(self) -> bool:
        return not self.exps

    def degree(self) -> int:
        """Total degree with Laurent exponents contributing absolute values."""
        return sum(abs(e) for _, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(merge_exponents(self.exps, other.exps))

    def __repr__(self):
        return f"Monomial({dict(self.exps)})"


ONE_MONOMIAL = Monomial(())


def monomial_sort_key(m: Monomial) -> tuple:
    """Graded key: (total |degree|, dense-ish exponent listing)."""
    return (m.degree(), m.exps)


_SHIFT_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*?)(\d+)$")


class Derivation:
    """A derivation of the coefficient algebra, given by generator images.

    Either an explicit image per covered variable, or a shift rule sending
    the k-th variable of a named family to the (k + 1)-th one, or both
    (explicit images, raw term dicts, for variables outside the family).
    `index` is its position in the owning context's declaration order.
    """

    def __init__(self, name: str, index: int, images: dict, shift_prefix: str | None = None):
        self.name = name
        self.index = index
        self.images = images
        self.shift_prefix = shift_prefix

    def shift_target(self, var: VariableSpec) -> int | None:
        """Family position this derivation shifts `var` to, if covered by the rule."""
        if self.shift_prefix is None:
            return None
        m = _SHIFT_NAME_RE.match(var.name)
        if not m or m.group(1) != self.shift_prefix:
            return None
        return int(m.group(2)) + 1

    def covers(self, var: VariableSpec) -> bool:
        return var.index in self.images or self.shift_target(var) is not None


class Context:
    """Field + variables + commuting derivations; frozen after validation."""

    def __init__(self, spec: FieldSpec, variable_cap: int = DEFAULT_VARIABLE_CAP):
        self.spec = spec
        self.variable_cap = variable_cap
        self.variables: list[VariableSpec] = []
        self.derivations: list[Derivation] = []
        self._by_name: dict[str, VariableSpec] = {}
        self._der_by_name: dict[str, Derivation] = {}
        self._frozen = False
        # (derivation index, m) -> raw terms of d(m), at most
        # PRODUCT_MEMO_CAP of them.
        self._dcache: dict[tuple[int, Monomial], dict[Monomial, object]] = {}
        # (derivation index, variable index) -> raw terms of d(x_i).
        self._images: dict[tuple[int, int], dict[Monomial, object]] = {}
        # The gamma walk's index arithmetic (operators._walk): alpha -> root
        # of its lazily built gamma tree.
        self._gamma_trees: dict[MultiIndex, object] = {}
        # (m1, m2) -> m1 * m2 for the monomial products mul_terms forms,
        # at most PRODUCT_MEMO_CAP of them.
        self._products: dict[tuple[Monomial, Monomial], Monomial] = {}
        # Per derivation, its exponent shift; found by freeze (see _grading).
        self.grading: tuple[tuple[int, ...], ...] | None = None

    # -- declaration ------------------------------------------------------

    def add_variable(self, name: str, kind: str = POLYNOMIAL) -> VariableSpec:
        if self._frozen:
            raise UsageError("context is frozen; cannot declare variables")
        return self._register_variable(name, kind, declared=True)

    def _claim_name(self, name: str) -> None:
        """Refuse a name that a variable or a derivation already holds."""
        if name in self._by_name or name in self._der_by_name:
            raise UsageError(f"name {name!r} already in use")

    def _register_variable(self, name: str, kind: str, declared: bool) -> VariableSpec:
        self._claim_name(name)
        if len(self.variables) >= self.variable_cap:
            raise VariableCapError(
                f"variable cap {self.variable_cap} reached while declaring {name!r}"
            )
        var = VariableSpec(name=name, kind=kind, index=len(self.variables), declared=declared)
        self.variables.append(var)
        self._by_name[name] = var
        return var

    def add_derivation(
        self,
        name: str,
        images: dict[str, "AElement"] | None = None,
        shift_prefix: str | None = None,
    ) -> Derivation:
        if self._frozen:
            raise UsageError("context is frozen; cannot add derivations")
        self._claim_name(name)
        image_by_index: dict[int, dict[Monomial, object]] = {}
        for var_name, u in (images or {}).items():
            var = self.variable(var_name)
            if not isinstance(u, AElement) or u.ctx is not self:
                raise UsageError(f"image of {var_name!r} is not an element of this algebra")
            image_by_index[var.index] = u.terms
        d = Derivation(name, len(self.derivations), image_by_index, shift_prefix)
        self.derivations.append(d)
        self._der_by_name[name] = d
        return d

    def freeze(self) -> "Context":
        """Validate coverage and pairwise commutativity, then freeze."""
        violations = []
        for d in self.derivations:
            for var in self.variables:
                if not d.covers(var):
                    violations.append(f"derivation {d.name} has no image for {var.name}")
        if not violations:
            for a in range(len(self.derivations)):
                for b in range(a + 1, len(self.derivations)):
                    d1, d2 = self.derivations[a], self.derivations[b]
                    if not self.check_commuting(d1, d2):
                        violations.append(f"derivations {d1.name} and {d2.name} do not commute")
        if violations:
            raise ValidationError(violations)
        self._frozen = True
        self.grading = self._grading()
        return self

    def _grading(self) -> tuple[tuple[int, ...], ...] | None:
        """Per derivation d_j, the exponent shift delta_j (one entry per
        variable) with d_j(x_i) in F*x^(e_i + delta_j) for every variable; a
        zero image fits any shift.  None when a derivation has a shift rule,
        an image that is not a single monomial, or images that disagree on
        delta_j.  With a grading, m*d^alpha has degree m + sum alpha_j*delta_j
        (see degree), and products and brackets of homogeneous operators are
        homogeneous of the summed degree."""
        n = len(self.variables)
        shifts = []
        for d in self.derivations:
            if d.shift_prefix is not None:
                return None
            delta = None
            for i, image in d.images.items():
                if not image:
                    continue
                if len(image) != 1:
                    return None
                shift = [0] * n
                for k, e in next(iter(image)).exps:
                    shift[k] = e
                shift[i] -= 1
                if delta is not None and delta != shift:
                    return None
                delta = shift
            shifts.append(tuple(delta or [0] * n))
        return tuple(shifts)

    # -- lookup -----------------------------------------------------------

    def variable(self, name: str) -> VariableSpec:
        var = self._by_name.get(name)
        if var is None:
            raise UsageError(f"unknown variable {name!r}")
        return var

    def has_variable(self, name: str) -> bool:
        return name in self._by_name

    def has_derivation(self, name: str) -> bool:
        return name in self._der_by_name

    def derivation(self, name: str) -> Derivation:
        d = self._der_by_name.get(name)
        if d is None:
            raise UsageError(f"unknown derivation {name!r}")
        return d

    def derivation_index(self, d: Derivation) -> int:
        if d.index < len(self.derivations) and self.derivations[d.index] is d:
            return d.index
        raise UsageError(f"derivation {d.name!r} is not registered in this context")

    def degree(self, alpha: MultiIndex, m: Monomial) -> tuple[int, ...]:
        """The degree m + sum_j alpha_j*delta_j of m*d^alpha, one entry per
        variable; only for a context with a grading."""
        deg = [0] * len(self.variables)
        for i, e in m.exps:
            deg[i] = e
        for j, a in alpha.entries:
            for i, s in enumerate(self.grading[j]):
                deg[i] += a * s
        return tuple(deg)

    # -- element factories --------------------------------------------------

    def zero(self) -> "AElement":
        return AElement(self, {})

    def one(self) -> "AElement":
        return AElement(self, {ONE_MONOMIAL: 1})

    def var(self, name: str, exponent: int = 1) -> "AElement":
        return self.monomial({name: exponent})

    def monomial(self, exponents: dict[str, int], coefficient=1) -> "AElement":
        by_index = {}
        for name, e in exponents.items():
            var = self.variable(name)
            if e < 0 and var.kind == POLYNOMIAL:
                raise UsageError(f"negative power of polynomial variable {name!r}")
            by_index[var.index] = e
        c = self.spec.value(coefficient)
        if not c:
            return self.zero()
        return AElement(self, {Monomial.make(by_index): c})

    # -- derivation application --------------------------------------------

    def _image(self, d: Derivation, var: VariableSpec) -> dict[Monomial, object]:
        explicit = d.images.get(var.index)
        if explicit is not None:
            return explicit
        target = d.shift_target(var)
        if target is None:
            raise UsageError(f"derivation {d.name} does not cover variable {var.name}")
        # The shift family grows on demand; target is always var's position + 1.
        name = f"{d.shift_prefix}{target}"
        shifted = self._by_name.get(name)
        if shifted is None:
            shifted = self._register_variable(name, POLYNOMIAL, declared=False)
        return {Monomial(((shifted.index, 1),)): 1}

    def _monomial_derivative(self, d: Derivation, m: Monomial) -> dict[Monomial, object]:
        """Raw terms of d(m), cached under (d.index, m); do not mutate them."""
        key = (d.index, m)
        cached = self._dcache.get(key)
        if cached is not None:
            return cached
        out: dict[Monomial, object] = {}
        p, images = self.spec.p, self._images
        for i, e in m.exps:
            image = images.get((d.index, i))
            if image is None:  # may register a shift variable, even where c vanishes
                image = images[(d.index, i)] = self._image(d, self.variables[i])
            c = e if p is None else e % p
            if c:  # e may vanish in characteristic p
                rest = Monomial(merge_exponents(m.exps, ((i, 1),), -1))
                mul_terms(out, {rest: c}, image, self._products, p)
        if len(self._dcache) >= PRODUCT_MEMO_CAP:
            self._dcache.clear()
        out = self._dcache[key] = nonzero(out)
        return out

    def _derive(self, d: Derivation, terms: dict[Monomial, object]) -> dict[Monomial, object]:
        """Accumulation buffer of d applied to raw terms, summed in one pass."""
        out: dict[Monomial, object] = {}
        p = self.spec.p
        for m, c in terms.items():
            add_terms(out, self._monomial_derivative(d, m), p, c)
        return out

    def apply_derivation(self, d: Derivation, u: "AElement") -> "AElement":
        """Leibniz-linear extension of the generator images to all of A."""
        if u.ctx is not self:
            raise UsageError("element belongs to a different context")
        self.derivation_index(d)  # refuses a derivation of another context
        return AElement(self, self._derive(d, u.terms))

    def check_commuting(self, d1: Derivation, d2: Derivation) -> bool:
        """True iff the commutator vanishes on every generator.

        The commutator of two derivations is again a derivation, so vanishing
        on generators forces vanishing on the whole generated subalgebra.
        """
        for var in list(self.variables):
            x = self.var(var.name)
            lhs = self.apply_derivation(d1, self.apply_derivation(d2, x))
            rhs = self.apply_derivation(d2, self.apply_derivation(d1, x))
            if lhs != rhs:
                return False
        return True


class AElement:
    """Sparse element of the coefficient algebra: monomial -> plain field value.

    An element's terms are never mutated after construction; the operations
    build new elements.  So `_partials`, None until the first use, can memoize
    gamma -> the raw terms of d^gamma(self), zeros dropped, for the product
    walk and the action in operators.py.
    """

    __slots__ = ("ctx", "terms", "_partials")

    def __init__(self, ctx: Context, terms: dict[Monomial, object]):
        self.ctx = ctx
        self.terms = nonzero(terms)
        self._partials = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "AElement"):
        if not isinstance(other, AElement):
            raise UsageError(f"expected a coefficient-algebra element, got {other!r}")
        if other.ctx is not self.ctx:
            raise UsageError("mixed contexts in coefficient arithmetic")

    def __eq__(self, other):
        if not isinstance(other, AElement):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __add__(self, other: "AElement") -> "AElement":
        self._check(other)
        out = dict(self.terms)
        add_terms(out, other.terms, self.ctx.spec.p)
        return AElement(self.ctx, out)

    def __neg__(self) -> "AElement":
        p = self.ctx.spec.p
        return AElement(self.ctx, {m: -c if p is None else p - c for m, c in self.terms.items()})

    def __sub__(self, other: "AElement") -> "AElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AElement):
            self._check(other)
            out: dict[Monomial, object] = {}
            mul_terms(out, self.terms, other.terms, self.ctx._products, self.ctx.spec.p)
            return AElement(self.ctx, out)
        spec = self.ctx.spec
        c, p = spec.value(other), spec.p
        return AElement(self.ctx, {m: v * c if p is None else v * c % p for m, v in self.terms.items()})

    __rmul__ = __mul__

    def scale(self, c) -> "AElement":
        return self * c

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms in descending graded print order; deterministic."""
        return sorted(self.terms.items(), key=lambda t: monomial_sort_key(t[0]), reverse=True)

    def single_term(self) -> tuple[Monomial, object] | None:
        if len(self.terms) != 1:
            return None
        return next(iter(self.terms.items()))

    def __str__(self) -> str:
        return format_a_element(self)

    def __repr__(self) -> str:
        return f"<A {format_a_element(self)}>"


# -- printing ---------------------------------------------------------------


def format_monomial(ctx: Context, m: Monomial) -> str:
    if m.is_one():
        return "1"
    parts = []
    for i, e in sorted(m.exps):
        name = ctx.variables[i].name
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _signed_monomial_term(ctx: Context, m: Monomial, c) -> tuple[bool, str]:
    """(is_negative, unsigned text) for one scalar*monomial term."""
    negative, mag = ctx.spec.signed(c)
    pieces = []
    if not (mag == 1 and not m.is_one()):
        pieces.append(str(mag))
    if not m.is_one():
        pieces.append(format_monomial(ctx, m))
    return negative, "*".join(pieces)


def join_signed(parts: list[tuple[bool, str]]) -> str:
    if not parts:
        return "0"
    out = []
    for k, (negative, text) in enumerate(parts):
        if k == 0:
            out.append(f"-{text}" if negative else text)
        else:
            out.append(f" - {text}" if negative else f" + {text}")
    return "".join(out)


def format_a_element(u: AElement) -> str:
    parts = [_signed_monomial_term(u.ctx, m, c) for m, c in u.sorted_terms()]
    return join_signed(parts)
