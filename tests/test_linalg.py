import bisect
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from weyltype import FieldSpec, RATIONAL
from weyltype.linalg import RowReducer, nullspace

F5 = FieldSpec("prime", 5)


def reference_nullspace(rows, ncols, spec):
    """The kernel basis built from every row, with no early exit."""
    red = RowReducer(spec)
    for row in rows:
        red.add(row)
    pivots = set(red.pivots())
    kernel = RowReducer(spec)
    for f in range(ncols):
        if f not in pivots:
            vec = {f: spec.one()}
            for p, row in zip(red.pivots(), red.vectors()):
                if f in row:
                    vec[p] = -row[f]
            kernel.add(vec)
    return kernel.vectors()


@st.composite
def sparse_matrices(draw):
    spec = draw(st.sampled_from([RATIONAL, F5]))
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3).map(spec.from_int)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols).map(
        lambda d: {j: c for j, c in d.items() if not c.is_zero()}
    )
    rows = draw(st.lists(row, max_size=10))
    if draw(st.booleans()):
        # Append the identity so the matrix is certainly of full column rank.
        rows += [{j: spec.one()} for j in range(ncols)]
    return spec, ncols, rows


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_nullspace_equals_full_reduction(case):
    spec, ncols, rows = case
    kernel = nullspace(iter(rows), ncols, spec)
    assert kernel == reference_nullspace(rows, ncols, spec)
    rank = RowReducer(spec)
    for row in rows:
        rank.add(row)
    assert len(kernel) == ncols - rank.rank
    for vec in kernel:
        for row in rows:
            assert sum((c * vec[j] for j, c in row.items() if j in vec), spec.zero()).is_zero()


def test_nullspace_stops_reading_rows_at_full_rank():
    consumed = []

    def rows():
        for j in range(3):
            consumed.append(j)
            yield {j: RATIONAL.one()}
        raise AssertionError("a row after saturation was produced")

    assert nullspace(rows(), 3, RATIONAL) == []
    assert consumed == [0, 1, 2]


def test_nullspace_reads_every_row_below_full_rank():
    consumed = []

    def rows():
        for j in range(5):
            consumed.append(j)
            yield {0: RATIONAL.from_int(j + 1), 1: RATIONAL.one()}

    kernel = nullspace(rows(), 3, RATIONAL)
    assert consumed == [0, 1, 2, 3, 4]
    assert kernel == [{2: RATIONAL.one()}]


class SweepReducer:
    """RREF reducer whose reduce sweeps every row in pivot order: the oracle
    for RowReducer, which visits only the pivots a vector holds."""

    def __init__(self, spec):
        self.spec = spec
        self.rows = []

    @staticmethod
    def _axpy(target, c, row):
        for j, v in row.items():
            nv = target[j] - c * v if j in target else -(c * v)
            if nv.is_zero():
                target.pop(j, None)
            else:
                target[j] = nv

    def reduce(self, vec):
        work = dict(vec)
        for p, row in self.rows:
            if p in work:
                self._axpy(work, work[p], row)
        return work

    def contains(self, vec):
        return not self.reduce(vec)

    def add(self, vec):
        work = self.reduce(vec)
        if not work:
            return False
        pivot = min(work)
        inv = work[pivot].inverse()
        row = {j: v * inv for j, v in work.items()}
        for _, existing in self.rows:
            if pivot in existing:
                self._axpy(existing, existing[pivot], row)
        bisect.insort(self.rows, (pivot, row), key=itemgetter(0))
        return True

    def vectors(self):
        return [dict(row) for _, row in self.rows]


def holders_of(rows) -> dict:
    """Non-pivot column -> pivots of the rows holding it, computed from the rows."""
    out = {}
    for p, row in rows:
        for j in row:
            if j != p:
                out.setdefault(j, set()).add(p)
    return out


def holder_index(red) -> dict:
    """The reducer's own column index, without the empty sets it may keep."""
    return {j: ps for j, ps in red._holders.items() if ps}


def ordered(vec: dict) -> list:
    """A vector's entries in key order, so that order differences show."""
    return list(vec.items())


@st.composite
def reducer_scripts(draw):
    spec = draw(st.sampled_from([RATIONAL, F5]))
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-4, 4).map(spec.from_int).filter(lambda c: not c.is_zero())
    vec = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    ops = st.tuples(st.sampled_from(["add", "reduce", "contains"]), vec)
    return spec, draw(st.lists(ops, max_size=16))


@settings(max_examples=200, deadline=None)
@given(reducer_scripts())
def test_row_reducer_matches_a_full_sweep(case):
    spec, ops = case
    red, oracle = RowReducer(spec), SweepReducer(spec)
    for op, vec in ops:
        if op == "add":
            assert red.add(vec) == oracle.add(vec)
        elif op == "reduce":
            assert ordered(red.reduce(vec)) == ordered(oracle.reduce(vec))
        else:
            assert red.contains(vec) == oracle.contains(vec)
        assert [ordered(v) for v in red.vectors()] == [ordered(v) for v in oracle.vectors()]
        # RREF: pivots ascend, each row is 1 at its pivot and 0 at every other.
        pivots = red.pivots()
        assert pivots == sorted(set(pivots))
        rows = list(zip(pivots, red.vectors()))
        for p, row in rows:
            assert row[p] == spec.one()
            assert not any(q in row for q in pivots if q != p)
        # The column index lists exactly the rows that hold each column.
        assert holder_index(red) == holders_of(rows)
