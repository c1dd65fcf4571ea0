from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import random

from weyltype import FieldSpec, RATIONAL, UsageError, w_mul
from weyltype.fields import Scalar, binom_scalar, format_scalar, parse_scalar
from weyltype.checks import SampleBounds, random_weyl
from weyltype.fields import MAX_MODULUS, is_prime
from weyltype.parser import evaluate_text

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


# Rational values are canonical: an int exactly when integral, otherwise a
# Fraction in lowest terms; never a float.  Plain Fraction arithmetic is the
# oracle.


def assert_rational(s: Scalar, expected: Fraction):
    assert s.spec == RATIONAL
    assert s.value == expected
    if expected.denominator == 1:
        assert type(s.value) is int
    else:
        assert type(s.value) is Fraction
        assert (s.value.numerator, s.value.denominator) == (expected.numerator, expected.denominator)


fractions = st.builds(
    Fraction, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=12)
)


@given(fractions, fractions, st.integers(min_value=-5, max_value=5))
def test_rational_ops_match_fraction_oracle(a, b, n):
    x, y = RATIONAL.from_fraction(a), RATIONAL.from_fraction(b)
    assert_rational(x, a)
    assert_rational(parse_scalar(str(a), RATIONAL), a)
    assert_rational(RATIONAL.scalar(str(a)), a)
    assert_rational(x + y, a + b)
    assert_rational(x - y, a - b)
    assert_rational(x * y, a * b)
    assert_rational(-x, -a)
    assert_rational(x + n, a + n)
    assert_rational(n + x, a + n)
    assert_rational(n - x, n - a)
    assert_rational(x * n, a * n)
    assert_rational(n * x, a * n)
    if b:
        assert_rational(y.inverse(), 1 / b)
        assert_rational(x / y, a / b)
    if n:
        assert_rational(x / n, a / n)
    assert format_scalar(x) == (str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}")


@given(st.integers(min_value=-30, max_value=30).filter(bool))
def test_rational_inverse_of_integer_is_never_a_float(n):
    assert_rational(RATIONAL.from_int(n).inverse(), Fraction(1, n))


@given(st.one_of(rationals, residues), st.one_of(rationals, residues))
def test_equal_scalars_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (a.spec == b.spec and a.value == b.value)


def test_equality_across_representations_and_fields():
    assert RATIONAL.from_fraction(Fraction(6, 3)) == RATIONAL.from_int(2)
    assert hash(RATIONAL.from_fraction(Fraction(6, 3))) == hash(RATIONAL.from_int(2))
    assert RATIONAL.from_int(2) == FieldSpec("rational").from_int(2)
    assert RATIONAL.from_int(3) != F5.from_int(3)
    assert RATIONAL.zero() != F5.zero()
    assert RATIONAL.from_int(3) != 3
    assert len({RATIONAL.from_int(3), F5.from_int(3), RATIONAL.scalar("6/2")}) == 2


def test_integral_rationals_are_plain_ints():
    assert type(RATIONAL.from_int(3).value) is int
    assert type(RATIONAL.scalar(Fraction(8, 4)).value) is int
    assert type(parse_scalar("-4/2", RATIONAL).value) is int
    assert type((RATIONAL.scalar("1/2") + RATIONAL.scalar("1/2")).value) is int
    assert type(RATIONAL.scalar("-1/3").inverse().value) is int
    assert type(binom_scalar(7, 3, RATIONAL).value) is int


def test_w_mul_keeps_integral_coefficients_as_ints(weyl_q):
    x = evaluate_text("t^3*d1^2 + 2*t*d1 - 5", weyl_q)
    y = evaluate_text("d1^3*t^4 + 7*t^2", weyl_q)
    for product in (w_mul(x, y), w_mul(y, x)):
        assert product.terms
        for u in product.terms.values():
            assert all(type(c.value) is int for _, c in u.sorted_terms())


def test_w_mul_coefficients_are_canonical_on_samples(weyl_q):
    rng = random.Random("canonical")
    bounds = SampleBounds(max_degree=4, max_level=4, max_terms=3, n_variables=1)
    for _ in range(40):
        product = w_mul(random_weyl(rng, weyl_q, bounds), random_weyl(rng, weyl_q, bounds))
        for u in product.terms.values():
            for _, c in u.sorted_terms():
                assert_rational(c, Fraction(c.value))
