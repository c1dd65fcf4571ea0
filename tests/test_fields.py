from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weyltype import FieldSpec, RATIONAL, Scalar, UsageError, binom_scalar, format_scalar, parse_scalar
from weyltype.fields import MAX_MODULUS, is_prime

F5 = FieldSpec("prime", 5)


def q(x) -> Scalar:
    return RATIONAL.scalar(Fraction(x))


def test_rational_addition_exact():
    assert q("1/2") + q("1/3") == q("5/6")


def test_prime_addition_wraps():
    assert F5.from_int(3) + F5.from_int(4) == F5.from_int(2)


def test_additive_identity():
    a = q("7/3")
    assert a + RATIONAL.zero() == a


def test_prime_inverse():
    assert F5.from_int(2).inverse() == F5.from_int(3)


def test_rational_reciprocal():
    assert q("2/3") * q("3/2") == RATIONAL.one()


def test_negate_zero():
    assert -RATIONAL.zero() == RATIONAL.zero()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RATIONAL.zero().inverse()


def test_mixed_specs_rejected():
    with pytest.raises(UsageError):
        q(1) + F5.from_int(1)


def test_composite_modulus_rejected():
    for bad in (1, 0, -3, 4, 9, 15):
        with pytest.raises(UsageError):
            FieldSpec("prime", bad)


def test_binomials():
    assert binom_scalar(4, 2, RATIONAL) == RATIONAL.from_int(6)
    assert binom_scalar(5, 2, F5) == F5.zero()  # C(5,2) = 10 = 0 mod 5
    for n in (0, 1, 7):
        assert binom_scalar(n, 0, RATIONAL) == RATIONAL.one()
    with pytest.raises(UsageError):
        binom_scalar(2, 3, RATIONAL)


# An independent binomial oracle: additive Pascal recursion, no factorials.
def pascal(n: int, k: int) -> int:
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


@given(st.integers(min_value=0, max_value=25), st.integers(min_value=0, max_value=25))
def test_binomial_matches_pascal_oracle(n, k):
    if k > n:
        return
    assert binom_scalar(n, k, RATIONAL) == RATIONAL.from_int(pascal(n, k))
    assert binom_scalar(n, k, F5) == F5.from_int(pascal(n, k))


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=29))
def test_pascal_identity_in_field(n, k):
    if k + 1 > n:
        return
    for spec in (RATIONAL, F5):
        lhs = binom_scalar(n, k, spec) + binom_scalar(n, k + 1, spec)
        assert lhs == binom_scalar(n + 1, k + 1, spec)


rationals = st.builds(
    lambda a, b: RATIONAL.scalar(Fraction(a, b)),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)
residues = st.builds(F5.from_int, st.integers(min_value=-20, max_value=20))


@given(st.one_of(rationals, residues), st.data())
def test_field_axioms(a, data):
    spec = a.spec
    strat = rationals if spec == RATIONAL else residues
    b = data.draw(strat)
    c = data.draw(strat)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == spec.zero()
    if not a.is_zero():
        assert a * a.inverse() == spec.one()


@given(st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=30))
def test_rational_canonical_form_is_idempotent(num, den):
    s = RATIONAL.scalar(Fraction(num, den))
    again = RATIONAL.scalar(Fraction(s.value.numerator, s.value.denominator))
    assert again == s
    assert s.value.denominator > 0
    from math import gcd

    assert gcd(s.value.numerator, s.value.denominator) == 1


@given(st.one_of(rationals, residues))
def test_scalar_text_roundtrip(a):
    assert parse_scalar(format_scalar(a), a.spec) == a


def test_parse_scalar_rejects_noncanonical_residues():
    with pytest.raises(UsageError):
        parse_scalar("7", F5)
    with pytest.raises(UsageError):
        parse_scalar("1/2", F5)
    assert parse_scalar("-3/6", RATIONAL) == q("-1/2")


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division_on_small_numbers():
    assert [n for n in range(-3, 5000) if is_prime(n)] == [
        n for n in range(-3, 5000) if _trial_division(n)
    ]


def test_is_prime_large_moduli_quickly():
    assert is_prime(2**61 - 1)  # Mersenne prime; trial division would not finish
    assert FieldSpec("prime", 2**61 - 1).from_int(-1).value == 2**61 - 2
    assert not is_prime(2**61 + 1)
    assert not is_prime(1000000007 * 998244353)


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers fool the Fermat test for every coprime base.
    for carmichael in (561, 1105, 41041, 825265, 321197185):
        assert not is_prime(carmichael)
    # Strong pseudoprime to bases 2, 3, 5 and 7.
    assert not is_prime(3215031751)
    # The least strong pseudoprime to the first twelve prime bases (up to 37);
    # base 41 exposes it.
    assert not is_prime(318665857834031151167461)


def test_is_prime_rejects_moduli_beyond_the_exact_range():
    assert MAX_MODULUS == 3317044064679887385961981
    with pytest.raises(UsageError, match="too large"):
        is_prime(MAX_MODULUS)
    with pytest.raises(UsageError, match="too large"):
        FieldSpec("prime", 10**30)
