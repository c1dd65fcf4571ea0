import bisect
import random
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyltype import FieldSpec, RATIONAL
from weyltype.fields import Scalar
from weyltype.linalg import RowReducer, nullspace

F5 = FieldSpec("prime", 5)
F2 = FieldSpec("prime", 2)
SMALL_PRIMES = [FieldSpec("prime", p) for p in (2, 3, 5, 7)]


def reference_nullspace(rows, ncols, spec):
    """The kernel basis built from every row, with no early exit."""
    red = RowReducer(spec)
    for row in rows:
        red.add(row)
    pivots = set(red.pivots())
    kernel = RowReducer(spec)
    for f in range(ncols):
        if f not in pivots:
            vec = {f: 1}
            for p, row in zip(red.pivots(), red.vectors()):
                if f in row:
                    vec[p] = spec.value(-row[f])
            kernel.add(vec)
    return kernel.vectors()


@st.composite
def sparse_matrices(draw):
    spec = draw(st.sampled_from([RATIONAL, F5]))
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3).map(spec.value)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols).map(
        lambda d: {j: c for j, c in d.items() if c}
    )
    rows = draw(st.lists(row, max_size=10))
    if draw(st.booleans()):
        # Append the identity so the matrix is certainly of full column rank.
        rows += [{j: 1} for j in range(ncols)]
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
            assert spec.value(sum(c * vec[j] for j, c in row.items() if j in vec)) == 0


def test_nullspace_stops_reading_rows_at_full_rank():
    consumed = []

    def rows():
        for j in range(3):
            consumed.append(j)
            yield {j: 1}
        raise AssertionError("a row after saturation was produced")

    assert nullspace(rows(), 3, RATIONAL) == []
    assert consumed == [0, 1, 2]


def test_nullspace_reads_every_row_below_full_rank():
    consumed = []

    def rows():
        for j in range(5):
            consumed.append(j)
            yield {0: j + 1, 1: 1}

    kernel = nullspace(rows(), 3, RATIONAL)
    assert consumed == [0, 1, 2, 3, 4]
    assert kernel == [{2: 1}]


class SweepReducer:
    """RREF reducer whose reduce sweeps every row in pivot order: the oracle
    for RowReducer, which visits only the pivots a vector holds.  It works
    on Scalars, so its arithmetic is independent of RowReducer's too."""

    def __init__(self, spec):
        self.spec = spec
        self.rows = []

    @staticmethod
    def _axpy(target, c, row):
        for j, v in row.items():
            nv = target[j] - c * v if j in target else -(c * v)
            if not nv:
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
    """A vector's entries in key order, so that order differences show; a
    Scalar entry is read as its plain value."""
    return [(j, getattr(c, "value", c)) for j, c in vec.items()]


def boxed(spec, vec: dict) -> dict:
    return {j: spec.scalar(c) for j, c in vec.items()}


@st.composite
def reducer_scripts(draw):
    spec = draw(st.sampled_from([RATIONAL, F5]))
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-4, 4).map(spec.value).filter(bool)
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
            assert red.add(vec) == oracle.add(boxed(spec, vec))
        elif op == "reduce":
            assert ordered(red.reduce(vec)) == ordered(oracle.reduce(boxed(spec, vec)))
        else:
            assert red.contains(vec) == oracle.contains(boxed(spec, vec))
        assert [ordered(v) for v in red.vectors()] == [ordered(v) for v in oracle.vectors()]
        # RREF: pivots ascend, each row is 1 at its pivot and 0 at every other.
        pivots = red.pivots()
        assert pivots == sorted(set(pivots))
        rows = list(zip(pivots, red.vectors()))
        for p, row in rows:
            assert row[p] == 1
            assert not any(q in row for q in pivots if q != p)
        # The column index lists exactly the rows that hold each column.
        assert holder_index(red) == holders_of(rows)


def assert_canonical_rows(spec, rows) -> None:
    """Over Q an int or a non-integral Fraction, over F_p an int in [0, p)."""
    for row in rows:
        for c in row.values():
            if spec.p is None:
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
            else:
                assert type(c) is int and 0 < c < spec.p


@st.composite
def plain_vector_lists(draw):
    spec = draw(st.sampled_from([RATIONAL] + SMALL_PRIMES))
    if spec.p is None:
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        entry = st.integers(-20, 20)
    vec = st.dictionaries(st.integers(0, 5), entry.map(spec.value).filter(bool), max_size=6)
    return spec, draw(st.lists(vec, max_size=8))


@settings(max_examples=40, deadline=None)
@given(plain_vector_lists())
def test_row_reducer_add_matches_scalar_arithmetic(case):
    # SweepReducer does every field operation with Scalars, so it checks the
    # inline plain-value arithmetic of RowReducer.add over Q and small F_p.
    spec, vecs = case
    red, oracle = RowReducer(spec), SweepReducer(spec)
    for vec in vecs:
        assert red.add(vec) == oracle.add(boxed(spec, vec))
    assert [ordered(v) for v in red.vectors()] == [ordered(v) for v in oracle.vectors()]
    assert_canonical_rows(spec, red.vectors())


def test_scalar_rows_give_the_rref_of_plain_rows():
    # perfbench/micro.py times RowReducer.add on rows of rational Scalars,
    # like these; they must reduce to the RREF that plain rows give.
    for seed in range(4):
        rng = random.Random(seed)
        rows = []
        for _ in range(48):
            cols = rng.sample(range(32), 4)
            rows.append({c: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for c in cols})
        plain, scalars = RowReducer(RATIONAL), RowReducer(RATIONAL)
        for row in rows:
            assert plain.add({j: RATIONAL.value(c) for j, c in row.items()}) == scalars.add(boxed(RATIONAL, row))
        assert plain.pivots() == scalars.pivots()
        assert [ordered(v) for v in plain.vectors()] == [ordered(v) for v in scalars.vectors()]
        assert_canonical_rows(RATIONAL, plain.vectors())
        assert all(type(c) is Scalar for v in scalars.vectors() for c in v.values())


@st.composite
def permuted_matrices(draw):
    spec = draw(st.sampled_from([RATIONAL] + SMALL_PRIMES))
    ncols = draw(st.integers(1, 6))
    if spec.p is None:
        entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    else:
        entry = st.integers(0, spec.p - 1)
    entry = entry.map(spec.value).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    rows = draw(st.lists(row, max_size=10))
    return spec, ncols, rows, draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(permuted_matrices())
def test_nullspace_does_not_depend_on_the_row_order(case):
    # theta_kernel and compute_f1 hand nullspace their rows unsorted.
    spec, ncols, rows, permuted = case
    kernel = nullspace(iter(rows), ncols, spec)
    again = nullspace(iter(permuted), ncols, spec)
    assert [ordered(v) for v in again] == [ordered(v) for v in kernel]
    assert_canonical_rows(spec, kernel)


def check_against_sweep(spec, script, box=False):
    """Run (vec, expected add result) inserts on RowReducer and SweepReducer;
    with `box` the RowReducer gets Scalar rows too, as perfbench/micro.py
    gives it."""
    red, oracle = RowReducer(spec), SweepReducer(spec)
    for vec, accepted in script:
        assert red.add(boxed(spec, vec) if box else vec) is accepted
        assert oracle.add(boxed(spec, vec)) is accepted
        assert [ordered(v) for v in red.vectors()] == [ordered(v) for v in oracle.vectors()]
        assert holder_index(red) == holders_of(zip(red.pivots(), red.vectors()))
    return red


@pytest.mark.parametrize("spec", [RATIONAL, F5])
def test_unit_row_on_a_free_column_clears_it_from_its_holders(spec):
    red = check_against_sweep(spec, [
        ({0: 1, 2: 3, 3: 1}, True),
        ({1: 2, 2: 4}, True),
        ({2: 3}, True),  # column 2 is free, held by both rows
        ({3: 2}, True),  # column 3 is free, held by row 0 only
    ])
    assert red.vectors() == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]
    assert holder_index(red) == {}


@pytest.mark.parametrize("spec", [RATIONAL, F5])
def test_one_entry_on_a_pivot_column_is_reduced_like_any_vector(spec):
    # Pivot 0's row also holds column 2, so {0: 4} leaves the residue
    # -12 at column 2 and is accepted; a pivot's unit row spans {1: 3}.
    red = check_against_sweep(spec, [
        ({0: 1, 2: 3}, True),
        ({1: 1}, True),
        ({0: 4}, True),
        ({1: 3}, False),
        ({2: 2}, False),
    ])
    assert red.vectors() == [{0: 1}, {1: 1}, {2: 1}]


def test_one_entry_scalar_rows_reduce_like_plain_ones():
    # The unit row of a one-entry Scalar row holds the int 1; later Scalar
    # rows are reduced against it as against any row.
    row = {j: Fraction(j + 1, 3) for j in range(5)}
    red = check_against_sweep(RATIONAL, [
        (row, True),
        ({2: Fraction(-7, 2)}, True),
        ({1: Fraction(5, 4), 4: 2}, True),
        ({4: Fraction(1, 9)}, True),
        ({2: Fraction(3, 5), 4: 1}, False),
        ({0: 2, 3: 8}, False),
    ], box=True)
    assert [ordered(v) for v in red.vectors()] == [[(0, 1), (3, 4)], [(1, 1)], [(2, 1)], [(4, 1)]]
    assert [type(v[p]) for p, v in zip(red.pivots(), red.vectors())] == [Scalar, Scalar, int, int]


@pytest.mark.parametrize("spec, c", [(RATIONAL, 0), (F5, 0), (F2, 0), (F5, 5), (F2, 2)])
def test_a_one_entry_zero_raises_as_a_longer_vector_does(spec, c):
    # Zero, or p over F_p, is no pivot: the one-entry vector takes the
    # general path and raises what a vector with one more zero entry raises.
    with pytest.raises(Exception) as longer:
        RowReducer(spec).add({0: c, 1: 0})
    red = RowReducer(spec)
    with pytest.raises(longer.type):
        red.add({0: c})
    assert red.rank == 0 and red.vectors() == []
    with pytest.raises(longer.type):
        nullspace([{0: c}], 1, spec)


@pytest.mark.parametrize("spec, c", [(RATIONAL, 1), (RATIONAL, Fraction(-2, 3)), (F5, 4), (F2, 1)])
def test_a_one_entry_unit_row_stays_on_its_shortcut(spec, c, monkeypatch):
    # A nonzero canonical entry on a free column stores {j: 1} without
    # reducing the vector.
    monkeypatch.setattr(RowReducer, "reduce", lambda self, vec: pytest.fail("reduced"))
    red = RowReducer(spec)
    assert red.add({3: c}) and red.vectors() == [{3: 1}]
