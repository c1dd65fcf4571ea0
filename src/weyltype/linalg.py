"""Exact row reduction over a scalar field, on sparse coordinate vectors.

Vectors are dicts column -> nonzero plain field value (see fields.py),
combined inline with one reduction mod p over F_p, and over Q by q_mul and
q_add when an operand is a Fraction.  The reducer keeps its rows in
reduced row-echelon form at all times; since RREF is unique for a given row
space, the stored basis does not depend on insertion order.

RowReducer.add is the one place in the library that still accepts Scalars
(see fields.py): perfbench/micro.py times inserts of rows of rational
Scalars.  A Scalar is not a Fraction, so its own operators do the
arithmetic, and a Scalar pivot is inverted with its own inverse().

The rows live in one pivot -> row map; in pivot order they are the RREF
basis.  An RREF row is zero at every pivot but its own, so subtracting it
from a vector changes no other pivot column.  Reduction therefore visits
only the pivots the vector holds, in ascending order: the same
subtractions, in the same order, as a sweep over every row.
Likewise an insertion clears its new pivot column only from the rows that
hold it, which a non-pivot column -> holder pivots index lists; the index
is updated for every row a subtraction changes, and may keep empty sets.

A one-entry vector {j: c} on a column j that is not yet a pivot, with c
nonzero (over F_p an int in [1, p)), is its own residue, and its RREF row
is the unit row {j: 1}: add stores that and deletes column j from the rows
that hold it, with no reduction, scaling or inverse.  The unit row holds the
int 1 also when c is a Scalar over Q, which the Scalar operators take as
the field's one.  Any other one-entry vector is reduced as any vector: on a
pivot column that pivot's row may hold more entries, and a zero c (over
F_p, any multiple of p) raises there as it does in a longer vector.  Many
of theta_kernel's constraint rows take this path.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import FieldSpec, Scalar, q_add, q_mul


def axpy_into(target: dict, c, row: dict, p: int | None) -> None:
    """target -= c * row mod p (p None over Q), dropping entries that cancel
    to zero."""
    c = -c
    for j, v in row.items():
        t = c * v if c.__class__ is not Fraction is not v.__class__ else q_mul(c, v)
        cur = target.get(j)
        if cur is not None:
            t = cur + t if cur.__class__ is not Fraction is not t.__class__ else q_add(cur, t)
        if p is not None:
            t %= p
        if t:
            target[j] = t
        else:
            target.pop(j, None)


class RowReducer:
    """Incremental RREF builder with exact membership tests."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._p = spec.p
        self._by_pivot: dict[int, dict] = {}  # pivot column -> its row
        self._holders: dict[int, set[int]] = {}  # non-pivot column -> pivots of rows holding it

    @property
    def rank(self) -> int:
        return len(self._by_pivot)

    def pivots(self) -> list[int]:
        return sorted(self._by_pivot)

    def reduce(self, vec: dict) -> dict:
        """Return vec reduced against the current basis (a fresh dict)."""
        work = dict(vec)
        by_pivot, p = self._by_pivot, self._p
        for k in sorted(j for j in vec if j in by_pivot):
            axpy_into(work, work[k], by_pivot[k], p)
        return work

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict) -> bool:
        """Insert vec's residue as a new pivot row; False if already in span."""
        if len(vec) == 1:
            (pivot,) = vec
            if pivot not in self._by_pivot:
                c, p = vec[pivot], self._p
                if c if p is None else c.__class__ is int and 0 < c < p:  # a nonzero canonical c
                    for k in self._holders.pop(pivot, ()):
                        del self._by_pivot[k][pivot]
                    self._by_pivot[pivot] = {pivot: 1}
                    return True
        work = self.reduce(vec)
        if not work:
            return False
        pivot, p = min(work), self._p
        lead = work[pivot]
        inv = lead.inverse() if lead.__class__ is Scalar else self.spec.inv(lead)
        if p is not None:
            row = {j: v * inv % p for j, v in work.items()}
        else:
            row = {j: v * inv if v.__class__ is not Fraction is not inv.__class__ else q_mul(v, inv)
                   for j, v in work.items()}
        holders = self._holders
        for k in sorted(holders.pop(pivot, ())):
            existing = self._by_pivot[k]
            axpy_into(existing, existing[pivot], row, p)
            for j in row:
                if j in existing:
                    holders.setdefault(j, set()).add(k)
                elif j != pivot:
                    holders[j].discard(k)
        for j in row:
            if j != pivot:
                holders.setdefault(j, set()).add(pivot)
        self._by_pivot[pivot] = row
        return True

    def vectors(self) -> list[dict]:
        by_pivot = self._by_pivot
        return [dict(by_pivot[p]) for p in sorted(by_pivot)]


def nullspace(constraints, ncols: int, spec: FieldSpec) -> list[dict]:
    """Canonical (RREF) basis of {x : Mx = 0} for sparse constraint rows,
    the same whatever their order.

    `constraints` may be any iterable, including a lazy generator.  Once the
    rows reach full column rank the kernel is {0} whatever rows follow, so
    iteration stops there and the remaining rows are never produced.
    """
    return kernel_reducer(constraints, ncols, spec).vectors()


def kernel_reducer(constraints, ncols: int, spec: FieldSpec) -> RowReducer:
    """A reducer whose rows are nullspace's canonical kernel basis."""
    red = RowReducer(spec)
    for row in constraints:
        if red.add(row) and red.rank == ncols:
            return RowReducer(spec)
    # Free column f spans the vector that is 1 at f and -row[f] at each pivot.
    by_pivot, p = red._by_pivot, spec.p
    kernel = {f: {f: 1} for f in range(ncols) if f not in by_pivot}
    for k in sorted(by_pivot):
        for j, c in by_pivot[k].items():
            vec = kernel.get(j)
            if vec is not None:
                vec[k] = -c if p is None else p - c
    canon = RowReducer(spec)
    for vec in kernel.values():
        canon.add(vec)
    return canon
