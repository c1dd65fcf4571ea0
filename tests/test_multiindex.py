import copy
import os
import pickle
import subprocess
import sys
import threading
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weyltype
from weyltype import FieldSpec, MultiIndex, RATIONAL, UsageError, p_adic_factor
from weyltype import coefficients, multiindex
from weyltype.coefficients import Monomial
from weyltype.multiindex import (
    MINUS_INFINITY,
    ZERO_INDEX,
    PAdicFactor,
    binom_product,
    compare,
    lower_set,
)

F5 = FieldSpec("prime", 5)

mk = MultiIndex.make


def test_level():
    assert mk({0: 2, 2: 3}).level() == 5
    assert mk({}).level() == 0
    assert mk({3: 1}).level() == 1


def test_minus_infinity_ordering():
    assert MINUS_INFINITY < -10
    assert MINUS_INFINITY < 0
    assert not (MINUS_INFINITY < MINUS_INFINITY)
    assert MINUS_INFINITY <= 5
    assert MINUS_INFINITY == MINUS_INFINITY


def test_compare_examples():
    assert compare(mk({1: 1}), mk({0: 1})) < 0  # same level, first index decides
    assert compare(mk({0: 2}), mk({2: 3})) < 0  # level decides
    a = mk({0: 1, 1: 2})
    assert compare(a, a) == 0


def test_lower_set_examples():
    assert [g.to_dict() for g in lower_set(mk({0: 1, 1: 1}))] == [
        {},
        {1: 1},
        {0: 1},
        {0: 1, 1: 1},
    ]
    assert lower_set(mk({})) == [mk({})]
    assert [g.to_dict() for g in lower_set(mk({0: 2}))] == [{}, {0: 1}, {0: 2}]


def test_binom_product_examples():
    assert binom_product(mk({0: 2, 1: 1}), mk({0: 1, 1: 1}), RATIONAL) == RATIONAL.from_int(2)
    assert binom_product(mk({0: 3, 2: 4}), mk({}), RATIONAL) == RATIONAL.one()
    assert binom_product(mk({0: 5}), mk({0: 2}), F5) == F5.zero()
    with pytest.raises(UsageError):
        binom_product(mk({0: 1}), mk({0: 2}), RATIONAL)


def test_supp():
    assert mk({1: 2, 3: 1}).supp() == (1, 3)
    assert mk({}).supp() == ()
    assert mk({4: 1}).supp() == (4,)


def test_p_adic_factor_examples():
    assert p_adic_factor(mk({0: 3}), 2) == [
        PAdicFactor(index=0, power=1, multiplicity=1),
        PAdicFactor(index=0, power=2, multiplicity=1),
    ]
    assert p_adic_factor(mk({0: 5}), 5) == [PAdicFactor(index=0, power=5, multiplicity=1)]
    assert p_adic_factor(mk({0: 6}), 5) == [
        PAdicFactor(index=0, power=1, multiplicity=1),
        PAdicFactor(index=0, power=5, multiplicity=1),
    ]


def test_p_adic_digit_range():
    for p in (2, 3, 5):
        for e in range(1, 40):
            for factor in p_adic_factor(mk({0: e}), p):
                assert 1 <= factor.multiplicity <= p - 1
            # digits recompose the exponent
            total = sum(f.power * f.multiplicity for f in p_adic_factor(mk({0: e}), p))
            assert total == e


indices = st.dictionaries(
    st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4), max_size=3
).map(mk)


@given(indices, indices)
def test_compare_trichotomy(a, b):
    signs = [compare(a, b), compare(b, a)]
    if a == b:
        assert signs == [0, 0]
    else:
        assert sorted(signs) == [-1, 1]


@given(indices, indices, indices)
def test_compare_transitivity(a, b, c):
    chain = sorted([a, b, c])
    assert compare(chain[0], chain[1]) <= 0
    assert compare(chain[1], chain[2]) <= 0
    assert compare(chain[0], chain[2]) <= 0


@given(indices, indices)
def test_order_extends_level(a, b):
    if a.level() < b.level():
        assert compare(a, b) < 0


@given(indices)
def test_lower_set_size_and_closure(a):
    ls = lower_set(a)
    expected = 1
    for _, e in a.entries:
        expected *= e + 1
    assert len(ls) == expected
    members = set(ls)
    for g in ls:
        assert g.le_componentwise(a)
        # downward closure: every element below g is present too
        for h in lower_set(g):
            assert h in members
    # ascending in the graded order
    for g1, g2 in zip(ls, ls[1:]):
        assert compare(g1, g2) < 0


@given(indices, indices, st.data())
def test_vandermonde_consistency(a, b, data):
    """The splitting identity behind associativity of the product."""
    total = a.add(b)
    gamma = data.draw(st.sampled_from(lower_set(total)))
    for spec in (RATIONAL, F5):
        acc = spec.zero()
        for g1 in lower_set(a):
            if not g1.le_componentwise(gamma):
                continue
            g2 = gamma.sub(g1)
            if g2.le_componentwise(b):
                acc = acc + binom_product(a, g1, spec) * binom_product(b, g2, spec)
        assert acc == binom_product(total, gamma, spec)


# MultiIndex is a hand-written slotted class, hash-consed, with its level
# computed at construction.


@given(indices)
def test_equal_entries_give_equal_keys(a):
    twin = MultiIndex(tuple(a.entries))
    assert twin is a
    assert twin.level() == a.level() == sum(e for _, e in a.entries)
    assert {twin: 1}[a] == 1
    assert a != a.entries and a != Monomial(a.entries)


@given(st.lists(indices, max_size=8))
def test_sorting_agrees_with_compare(items):
    assert sorted(items) == sorted(items, key=cmp_to_key(compare))


@given(indices)
def test_repr_lists_the_entries(a):
    assert repr(a) == f"MultiIndex({dict(a.entries)})"


@given(indices)
def test_multi_indices_are_immutable(a):
    for name in ("entries", "_hash", "_level", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == MultiIndex(a.entries)


@given(indices)
def test_copies_and_pickles_are_the_interned_index(a):
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a


def test_interning_is_thread_safe():
    # Every build of one key, from any thread, must give one object; a table
    # without its lock lets two threads both miss and each store their own.
    workers, n = 4, 20_000
    start = threading.Barrier(workers)
    built = [None] * workers

    def build(slot):
        start.wait()
        built[slot] = [
            MultiIndex(((0, 10**6 + k),)) if k % 2 else Monomial(((0, -(10**6) - k),))
            for k in range(n)
        ]

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    duplicates = sum(
        len({id(keys[k]) for keys in built}) - 1 for k in range(n)
    )
    assert duplicates == 0


def test_dropped_keys_leave_their_tables():
    entries = ((0, 123_457), (3, 2))
    a, m = MultiIndex(entries), Monomial(entries)
    assert multiindex._INDICES[entries]() is a
    assert coefficients._MONOMIALS[entries]() is m
    del a, m
    assert entries not in multiindex._INDICES
    assert entries not in coefficients._MONOMIALS


def _dict_path(a: MultiIndex, b: MultiIndex, sign: int) -> dict:
    d = a.to_dict()
    for i, e in b.entries:
        d[i] = d.get(i, 0) + sign * e
    return d


@given(indices, indices)
def test_add_sub_match_the_make_path(a, b):
    total = a.add(b)
    assert total == mk(_dict_path(a, b, 1))
    assert total.sub(b) == a and total.sub(a) == b
    assert a.sub(a) == ZERO_INDEX
    if b.le_componentwise(a):
        assert a.sub(b) == mk(_dict_path(a, b, -1))
    else:
        with pytest.raises(UsageError, match="negative"):
            a.sub(b)


REIMPORT_SCRIPT = """
import gc, importlib, sys
for _ in range(20):
    for name in [n for n in sys.modules if n == "weyltype" or n.startswith("weyltype.")]:
        del sys.modules[name]
    importlib.import_module("weyltype")
gc.collect()
print(sum(
    1 for o in gc.get_objects()
    if isinstance(o, type) and o.__module__ == "weyltype.fields" and o.__name__ == "Scalar"
))
"""


def test_reimport_does_not_pin_old_module_graphs():
    # A module-level typing alias over a package class is cached by typing
    # and keeps that class, and through it every module of its import, alive.
    src = str(Path(weyltype.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", REIMPORT_SCRIPT],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 2
