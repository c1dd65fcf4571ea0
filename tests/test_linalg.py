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
            for p, row in red.rows:
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
