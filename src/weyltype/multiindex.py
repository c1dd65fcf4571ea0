"""Multi-indices over the derivation index set.

A multi-index is a finite-support map from derivation indices (declaration
order) to positive exponents; it labels the basis monomial of the polynomial
algebra generated by the derivations.  The total order is graded: first by
level (the exponent sum), then lexicographically on the smallest differing
index.

MultiIndex here and Monomial in coefficients.py are hash-consed: each keeps
one live instance per exponent tuple, so equal keys are the same object and
compare and hash by identity, in C.  Both are immutable fields._Frozen
subclasses whose inline __new__ fills the slots.  Their tables hold the
instances weakly, so a key lives only while something else holds it, and
the keys of a dropped Context's caches leave with it.  An identity hash
depends on the address, so a set of keys iterates in no fixed order; key sets are used for
membership only (the window guard of Window.guard, set(a_labels) in
probes.theta_kernel) and are never iterated into output.  Dicts keep
insertion order whatever the hash, so every dict keyed by them iterates as
before.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from functools import partial, total_ordering
from math import comb
from typing import NamedTuple

from .errors import UsageError
from .fields import FieldSpec, _Frozen, _set_attribute, is_prime


class _MinusInfinity:
    """Sentinel below every integer; the level of the zero element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return not isinstance(other, _MinusInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _MinusInfinity)

    def __eq__(self, other):
        return isinstance(other, _MinusInfinity)

    def __hash__(self):
        return hash("minus-infinity")

    def __repr__(self):
        return "-inf"


MINUS_INFINITY = _MinusInfinity()


class _KeyedRef(weakref.ref):
    """A weak reference that knows its table key.  weakref.KeyedRef does the
    same, but its __new__ and __init__ are Python code, and every table miss
    builds one."""

    __slots__ = ("key",)


# Guards the intern tables' check-then-insert and check-then-delete steps.
# Reentrant, since a collection run while a thread holds it may call
# _forget in that same thread.
_INTERN_LOCK = threading.RLock()


def _forget(table: dict, dead: _KeyedRef, lock=_INTERN_LOCK) -> None:
    """Weak-reference callback: drop a dead instance's entry from its table,
    unless a new instance has already taken its place.

    The lock is bound as a default because module globals may already be
    cleared when the last keys die at interpreter exit.
    """
    with lock:
        if table.get(dead.key) is dead:
            del table[dead.key]


def intern(table: dict, key: tuple, obj, forget):
    """The miss path of a hash-consed __new__: the live instance for key.

    obj, freshly built, becomes that instance unless another thread stored
    one first; the table holds it weakly, so it leaves when it dies.
    """
    with _INTERN_LOCK:
        weak = table.get(key)
        if weak is not None:
            live = weak()
            if live is not None:
                return live
        weak = table[key] = _KeyedRef(obj, forget)
        weak.key = key
    return obj


def merge_exponents(a: tuple, b: tuple, sign: int = 1) -> tuple:
    """a + sign*b for sorted (index, exponent) tuples, dropping zero exponents.

    One merge pass over both tuples; the result is sorted like its inputs.
    """
    if not b:
        return a
    if not a and sign == 1:
        return b
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka = a[i][0]
        kb = b[j][0]
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j] if sign == 1 else (kb, sign * b[j][1]))
            j += 1
        else:
            e = a[i][1] + sign * b[j][1]
            if e:
                out.append((ka, e))
            i += 1
            j += 1
    if i < na:
        out.extend(a[i:])
    elif sign == 1:
        out.extend(b[j:])
    else:
        out.extend((k, sign * e) for k, e in b[j:])
    return tuple(out)


# entries -> weak reference to the one live MultiIndex with those entries.
_INDICES: dict[tuple, _KeyedRef] = {}
_forget_index = partial(_forget, _INDICES)


@total_ordering
class MultiIndex(_Frozen):
    """Sorted tuple of (derivation index, positive exponent) pairs.

    Immutable and hash-consed: building one returns the live instance with
    the same entries if there is one, so equality is identity and hashing
    is by address.  Multi-indices key the derivative memos, the gamma trees,
    their output-index maps and every output bucket, so all those lookups
    compare in C.  The level is computed once, since the product walk sorts
    term pairs by level.
    """

    __slots__ = ("entries", "_level", "__weakref__")

    def __new__(cls, entries: tuple[tuple[int, int], ...] = ()):
        ref = _INDICES.get(entries)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = object.__new__(cls)
        _set_attribute(self, "entries", entries)
        _set_attribute(self, "_level", sum(e for _, e in entries))
        return intern(_INDICES, entries, self, _forget_index)

    def __reduce__(self):
        return MultiIndex, (self.entries,)

    @staticmethod
    def make(mapping) -> "MultiIndex":
        if isinstance(mapping, MultiIndex):
            return mapping
        items = dict(mapping)
        out = []
        for i, e in sorted(items.items()):
            if e < 0:
                raise UsageError(f"negative exponent {e} at index {i}")
            if e:
                out.append((int(i), int(e)))
        return MultiIndex(tuple(out))

    @staticmethod
    def single(index: int, exponent: int = 1) -> "MultiIndex":
        return MultiIndex.make({index: exponent})

    def to_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def get(self, index: int) -> int:
        for i, e in self.entries:
            if i == index:
                return e
        return 0

    def level(self) -> int:
        return self._level

    def is_zero(self) -> bool:
        return not self.entries

    def supp(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def add(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(merge_exponents(self.entries, other.entries))

    def sub(self, other: "MultiIndex") -> "MultiIndex":
        entries = merge_exponents(self.entries, other.entries, -1)
        if any(e < 0 for _, e in entries):
            raise UsageError("multi-index subtraction went negative")
        return MultiIndex(entries)

    def le_componentwise(self, other: "MultiIndex") -> bool:
        o = other.to_dict()
        return all(e <= o.get(i, 0) for i, e in self.entries)

    def __lt__(self, other: "MultiIndex") -> bool:
        return compare(self, other) < 0

    def __repr__(self):
        return f"MultiIndex({dict(self.entries)})"


ZERO_INDEX = MultiIndex(())


def compare(a: MultiIndex, b: MultiIndex) -> int:
    """Graded order: by level first, then by the smallest index where they differ."""
    la, lb = a.level(), b.level()
    if la != lb:
        return -1 if la < lb else 1
    da, db = a.to_dict(), b.to_dict()
    for i in sorted(set(da) | set(db)):
        va, vb = da.get(i, 0), db.get(i, 0)
        if va != vb:
            return -1 if va < vb else 1
    return 0


def lower_set(alpha: MultiIndex) -> list[MultiIndex]:
    """All componentwise-smaller multi-indices, ascending in the graded order."""
    idxs = alpha.supp()
    ranges = [range(alpha.get(i) + 1) for i in idxs]
    out = [
        MultiIndex.make(dict(zip(idxs, choice)))
        for choice in itertools.product(*ranges)
    ]
    out.sort(key=lambda g: (g.level(), tuple(g.get(i) for i in idxs)))
    return out


def binom_product(alpha: MultiIndex, gamma: MultiIndex, spec: FieldSpec):
    """Product of componentwise binomial coefficients, taken over the integers
    and mapped once into the field as a plain value."""
    if not gamma.le_componentwise(alpha):
        raise UsageError("gamma is not componentwise below alpha")
    out = 1
    for i, g in gamma.entries:
        out *= comb(alpha.get(i), g)
    return spec.value(out)


class PAdicFactor(NamedTuple):
    """One factor d^(p^s) raised to a base-p digit, 1 <= multiplicity <= p-1."""

    index: int
    power: int
    multiplicity: int


def p_adic_factor(alpha: MultiIndex, p: int) -> list[PAdicFactor]:
    """Factor each exponent into base-p digits.

    Each emitted factor stands for the derivation obtained by iterating the
    index-th generator p^s times; recomposing the factors multiplicatively
    reproduces the original basis monomial exactly.
    """
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    out = []
    for i, e in alpha.entries:
        s = 0
        while e:
            digit = e % p
            if digit:
                out.append(PAdicFactor(index=i, power=p**s, multiplicity=digit))
            e //= p
            s += 1
    return out
