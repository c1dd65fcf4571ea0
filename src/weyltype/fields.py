"""Exact scalar arithmetic over the rationals and over prime residue fields.

Every field value is a plain Python number in canonical form.  An integral
rational is an ``int``; any other rational is a ``Fraction`` in lowest terms
with a positive denominator.  Keeping integers unboxed matters because the
binomials, derivative images and closure elements of most scenarios are
integers, and ``int`` arithmetic is far cheaper than ``Fraction`` arithmetic.
Prime residues are ``int``s in [0, p).  There is no floating point anywhere in
this package.

The kernel stores and combines these values inline, reducing mod p itself.
Its accumulate loops (mul_terms, add_terms, axpy_into, RowReducer.add) use
`*` and `+` unless an operand is a Fraction, and then `q_mul` and `q_add`:
one gcd, as Fraction does, but no operator dispatch, and `q_frac` sets the
reduced Fraction's two slots instead of calling its normalizing constructor
(0.3 against 1.1 us a product).  `parse_scalar` reads a value from text;
the FieldSpec helpers `value`, `inv` and `signed` serve the cold paths.

`Scalar` boxes a value with its field.  Only the benchmark harness and the
oracle tests use it; `FieldSpec.scalar` is its one constructor here.

`_Frozen` is the one base of the immutable slotted classes (FieldSpec,
VariableSpec, Monomial, MultiIndex); `_Value` adds equality, hash and repr by
`__reduce__` for the two that are not hash-consed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import UsageError

RATIONAL_KIND = "rational"
PRIME_KIND = "prime"


# The first 13 primes as Miller-Rabin bases decide primality exactly for every
# n below this bound (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < MAX_MODULUS, which it requires."""
    if n >= MAX_MODULUS:
        raise UsageError(f"modulus {n} is too large; moduli must be below {MAX_MODULUS}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Fills a _Frozen instance's slots, which its own __setattr__ refuses.
_set_attribute = object.__setattr__


class _Frozen:
    """Base of the immutable slotted classes: assignment and deletion raise."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


class _Value(_Frozen):
    """A _Frozen record that compares, hashes and prints by its __reduce__."""

    __slots__ = ()

    def __eq__(self, other):
        return self is other or (
            other.__class__ is self.__class__ and self.__reduce__() == other.__reduce__()
        )

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.__reduce__()[1]!r}"


class FieldSpec(_Value):
    """Which exact field scalars live in: the rationals, or F_p for prime p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == RATIONAL_KIND:
            if p is not None:
                raise UsageError("rational field spec takes no modulus")
        elif kind == PRIME_KIND:
            if p is None or not is_prime(p):
                raise UsageError(f"modulus {p!r} is not prime")
        else:
            raise UsageError(f"unknown field kind {kind!r}")
        _set_attribute(self, "kind", kind)
        _set_attribute(self, "p", p)

    def __reduce__(self):
        return FieldSpec, (self.kind, self.p)

    def value(self, x):
        """The plain value of an int, Fraction or str in this field."""
        if isinstance(x, bool):
            raise UsageError("booleans are not scalars")
        if isinstance(x, int):
            return x if self.p is None else x % self.p
        if isinstance(x, Fraction):
            if self.p is None:
                return q_frac(x.numerator, x.denominator)
            return x.numerator * self.inv(x.denominator % self.p) % self.p
        if isinstance(x, str):
            return parse_scalar(x, self)
        raise UsageError(f"cannot coerce {x!r} into {self}")

    def inv(self, v):
        """The inverse of a plain value; ZeroDivisionError for 0."""
        if not v:
            raise ZeroDivisionError("scalar 0 has no inverse")
        if self.p is not None:
            return pow(v, -1, self.p)
        n, d = v.numerator, v.denominator
        return q_frac(d, n) if n > 0 else q_frac(-d, -n)

    def signed(self, v) -> tuple[bool, object]:
        """(is negative, magnitude) of a plain value; residues are never negative."""
        if self.p is None and v < 0:
            return True, -v
        return False, v

    def scalar(self, value) -> "Scalar":
        """An int, Fraction or str boxed as a Scalar of this field."""
        return Scalar(self, self.value(value))

    def __str__(self) -> str:
        return "Q" if self.kind == RATIONAL_KIND else f"F_{self.p}"


RATIONAL = FieldSpec(RATIONAL_KIND)


class Scalar:
    """A plain field value boxed with its FieldSpec.

    This is the benchmark harness's and the oracle tests' type: perfbench
    counts and times its operators, and the tests use it as arithmetic
    independent of the kernel's inline sums.  In the library only
    FieldSpec.scalar returns one and only RowReducer.add accepts one.  ROADMAP
    item 5 deletes it once item 2a has moved the harness onto plain values.

    `value` is in canonical form (see the module docstring) and is never
    changed after construction.  Arithmetic between Scalars checks that the
    fields agree; an int operand joins the Scalar's field.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        self.spec = spec
        self.value = value

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.value == other.value and self.spec == other.spec

    def __hash__(self) -> int:
        return hash((self.spec, self.value))

    def _coerce(self, other) -> "Scalar":
        if other.__class__ is Scalar:
            if other.spec is not self.spec and other.spec != self.spec:
                raise UsageError("mixed field specs in scalar arithmetic")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Scalar(self.spec, self.spec.value(other))
        return NotImplemented  # type: ignore[return-value]

    def __bool__(self) -> bool:
        return bool(self.value)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        spec = self.spec
        v = self.value + o.value
        if spec.p is None:  # rationals
            if v.__class__ is not int and v.denominator == 1:
                v = v.numerator
            return Scalar(spec, v)
        return Scalar(spec, v % spec.p)

    __radd__ = __add__

    def __neg__(self):
        spec = self.spec
        if spec.p is None:
            return Scalar(spec, -self.value)
        return Scalar(spec, (-self.value) % spec.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        spec = self.spec
        v = self.value * o.value
        if spec.p is None:
            if v.__class__ is not int and v.denominator == 1:
                v = v.numerator
            return Scalar(spec, v)
        return Scalar(spec, v % spec.p)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        return Scalar(self.spec, self.spec.inv(self.value))

    def __repr__(self) -> str:
        return f"Scalar({self.spec}, {self.value})"


def q_frac(n: int, d: int):
    """n/d for ints n and d > 0, in canonical form."""
    g = gcd(n, d)
    if g == d:
        return n // d
    q = object.__new__(Fraction)  # Fraction.__new__ would normalize again
    q._numerator, q._denominator = n // g, d // g
    return q


def q_mul(a, b):
    """a * b for canonical rationals, at least one of them a Fraction."""
    if a.__class__ is int:
        return q_frac(a * b._numerator, b._denominator)
    if b.__class__ is int:
        return q_frac(a._numerator * b, a._denominator)
    return q_frac(a._numerator * b._numerator, a._denominator * b._denominator)


def q_add(a, b):
    """a + b for canonical rationals, at least one of them a Fraction."""
    if a.__class__ is int:
        a, b = b, a
    if b.__class__ is int:
        return q_frac(a._numerator + b * a._denominator, a._denominator)
    da, db = a._denominator, b._denominator
    return q_frac(a._numerator * db + b._numerator * da, da * db)


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_RESIDUE_RE = re.compile(r"^\d+$")


def parse_scalar(text: str, spec: FieldSpec):
    """The plain value of a canonical textual scalar, parsed bit-exactly:
    "n" or "n/d" over Q, a residue in [0, p) over F_p."""
    text = text.strip()
    if spec.kind == RATIONAL_KIND:
        m = _RATIONAL_RE.match(text)
        if not m:
            raise UsageError(f"not a rational literal: {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return q_frac(num, den)
    if not _RESIDUE_RE.match(text):
        raise UsageError(f"not a residue literal: {text!r}")
    n = int(text)
    if n >= spec.p:  # type: ignore[operator]
        raise UsageError(f"residue {n} not reduced mod {spec.p}")
    return n

