"""Exact scalar arithmetic over the rationals and over prime residue fields.

Every scalar is an immutable value in canonical form.  An integral rational
is a plain ``int``; any other rational is a ``Fraction`` in lowest terms with
a positive denominator.  Keeping integers unboxed matters because the
binomials, derivative images and closure elements of most scenarios are
integers, and ``int`` arithmetic is far cheaper than ``Fraction`` arithmetic.
Prime residues are ``int``s in [0, p).  There is no floating point anywhere in
this package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

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


class FieldSpec:
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
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldSpec is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FieldSpec is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return FieldSpec, (self.kind, self.p)

    def __eq__(self, other):
        return other.__class__ is FieldSpec and self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return f"FieldSpec(kind={self.kind!r}, p={self.p!r})"

    def from_int(self, n: int) -> "Scalar":
        if self.kind == RATIONAL_KIND:
            return Scalar(self, n)
        return Scalar(self, n % self.p)  # type: ignore[operator]

    def from_fraction(self, q: Fraction) -> "Scalar":
        if self.kind == RATIONAL_KIND:
            return Scalar(self, _canonical(q))
        num = self.from_int(q.numerator)
        return num * self.from_int(q.denominator).inverse()

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, str, or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.spec != self:
                raise UsageError("scalar belongs to a different field")
            return value
        if isinstance(value, bool):
            raise UsageError("booleans are not scalars")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        if isinstance(value, str):
            return parse_scalar(value, self)
        raise UsageError(f"cannot coerce {value!r} into {self}")

    def __str__(self) -> str:
        return "Q" if self.kind == RATIONAL_KIND else f"F_{self.p}"


RATIONAL = FieldSpec(RATIONAL_KIND)


class Scalar:
    """An element of a FieldSpec's field, always stored in canonical form.

    A rational value is an ``int`` when it is integral and a ``Fraction`` in
    lowest terms otherwise; a prime residue is an ``int`` in [0, p).  A Scalar
    is never mutated after construction: coefficient dictionaries and the
    derivative caches share Scalar objects, so changing one in place would
    change every element holding it.
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
            return self.spec.from_int(other)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not self.value

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
        if self.is_zero():
            raise ZeroDivisionError("scalar 0 has no inverse")
        v = self.value
        if self.spec.p is None:
            if v.__class__ is int:
                # Fraction(1, v), never 1 / v, which would be a float.
                return Scalar(self.spec, v if v == 1 or v == -1 else Fraction(1, v))
            return Scalar(self.spec, _canonical(Fraction(v.denominator, v.numerator)))
        return Scalar(self.spec, pow(v, -1, self.spec.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def is_negative(self) -> bool:
        """True for rationals below zero; prime residues are never negative."""
        return self.spec.kind == RATIONAL_KIND and self.value < 0

    def abs(self) -> "Scalar":
        return -self if self.is_negative() else self

    def is_one(self) -> bool:
        return self.value == 1

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self.spec}, {self.value})"


def _canonical(q: Fraction):
    """A rational value in canonical form: an int when integral, else q."""
    return q.numerator if q.denominator == 1 else q


def binom_scalar(n: int, k: int, spec: FieldSpec) -> Scalar:
    """C(n, k) computed over the integers, then mapped into the field.

    Computing over Z first is what makes the normal-ordering product correct
    in characteristic p.
    """
    if k < 0 or n < 0 or k > n:
        raise UsageError(f"binomial C({n}, {k}) outside 0 <= k <= n")
    return spec.from_int(comb(n, k))


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_RESIDUE_RE = re.compile(r"^\d+$")


def parse_scalar(text: str, spec: FieldSpec) -> Scalar:
    """Parse the canonical textual scalar form, bit-exactly."""
    text = text.strip()
    if spec.kind == RATIONAL_KIND:
        m = _RATIONAL_RE.match(text)
        if not m:
            raise UsageError(f"not a rational literal: {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return Scalar(spec, _canonical(Fraction(num, den)))
    if not _RESIDUE_RE.match(text):
        raise UsageError(f"not a residue literal: {text!r}")
    n = int(text)
    if n >= spec.p:  # type: ignore[operator]
        raise UsageError(f"residue {n} not reduced mod {spec.p}")
    return Scalar(spec, n)


def format_scalar(s: Scalar) -> str:
    # str gives "n" for an int and "n/d" for a non-integral Fraction.
    return str(s.value)
