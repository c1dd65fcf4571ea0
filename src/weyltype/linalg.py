"""Exact row reduction over a scalar field, on sparse coordinate vectors.

Vectors are dicts column -> nonzero scalar.  The reducer keeps its rows in
reduced row-echelon form at all times; since RREF is unique for a given row
space, the stored basis does not depend on insertion order.

The rows live in one pivot -> row map; in pivot order they are the RREF
basis.  An RREF row is zero at every pivot but its own, so subtracting it
from a vector changes no other pivot column.  Reduction therefore visits
only the pivots the vector holds, in ascending order: the same
subtractions, in the same order, as a sweep over every row.
Likewise an insertion clears its new pivot column only from the rows that
hold it, which a non-pivot column -> holder pivots index lists; the index
is updated for every row a subtraction changes, and may keep empty sets.
"""

from __future__ import annotations

from .fields import FieldSpec, Scalar


def axpy_into(target: dict, c: Scalar, row: dict) -> None:
    """target -= c * row, dropping entries that cancel to zero."""
    for j, v in row.items():
        cur = target.get(j)
        nv = -(c * v) if cur is None else cur - c * v
        if nv.is_zero():
            target.pop(j, None)
        else:
            target[j] = nv


class RowReducer:
    """Incremental RREF builder with exact membership tests."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
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
        by_pivot = self._by_pivot
        for p in sorted(j for j in vec if j in by_pivot):
            axpy_into(work, work[p], by_pivot[p])
        return work

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict) -> bool:
        """Insert vec's residue as a new pivot row; False if already in span."""
        work = self.reduce(vec)
        if not work:
            return False
        pivot = min(work)
        inv = work[pivot].inverse()
        row = {j: v * inv for j, v in work.items()}
        holders = self._holders
        for p in sorted(holders.pop(pivot, ())):
            existing = self._by_pivot[p]
            axpy_into(existing, existing[pivot], row)
            for j in row:
                if j in existing:
                    holders.setdefault(j, set()).add(p)
                elif j != pivot:
                    holders[j].discard(p)
        for j in row:
            if j != pivot:
                holders.setdefault(j, set()).add(pivot)
        self._by_pivot[pivot] = row
        return True

    def vectors(self) -> list[dict]:
        by_pivot = self._by_pivot
        return [dict(by_pivot[p]) for p in sorted(by_pivot)]


def nullspace(constraints, ncols: int, spec: FieldSpec) -> list[dict]:
    """Canonical (RREF) basis of {x : Mx = 0} for sparse constraint rows.

    `constraints` may be any iterable, including a lazy generator.  Once the
    rows reach full column rank the kernel is {0} whatever rows follow, so
    iteration stops there and the remaining rows are never produced.
    """
    red = RowReducer(spec)
    for row in constraints:
        if red.add(row) and red.rank == ncols:
            return []
    one = spec.one()
    # Free column f spans the vector that is 1 at f and -row[f] at each pivot.
    by_pivot = red._by_pivot
    kernel = {f: {f: one} for f in range(ncols) if f not in by_pivot}
    for p in sorted(by_pivot):
        for j, c in by_pivot[p].items():
            vec = kernel.get(j)
            if vec is not None:
                vec[p] = -c
    canon = RowReducer(spec)
    for vec in kernel.values():
        canon.add(vec)
    return canon.vectors()
