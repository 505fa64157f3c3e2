"""Field arithmetic over Q(i, sqrt2, sqrt3): examples and axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triality.field import (ExactScalar, HALF, I, ONE, SQRT2, SQRT3, SQRT6,
                            ZERO, from_parts, rational)

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4)
scalars = st.builds(ExactScalar, st.tuples(*([small_fractions] * 8)))
nonzero_scalars = scalars.filter(lambda x: not x.is_zero)


def test_inverse_sqrt2_squares_to_half():
    inv = ONE / SQRT2
    assert inv * inv == HALF


def test_sqrt2_times_sqrt3_is_sqrt6():
    assert SQRT2 * SQRT3 == SQRT6


def test_radical_relations():
    assert SQRT2 * SQRT6 == 2 * SQRT3
    assert SQRT3 * SQRT6 == 3 * SQRT2
    assert SQRT2 * SQRT2 == rational(2)
    assert SQRT3 * SQRT3 == rational(3)
    assert SQRT6 * SQRT6 == rational(6)


def test_conj_of_i_sqrt3():
    x = I * SQRT3
    assert x.conj() == -x


def test_i_squares_to_minus_one():
    assert I * I == rational(-1)


def test_predicates():
    assert ZERO.is_zero and ZERO.is_real and ZERO.is_rational
    assert SQRT2.is_real and not SQRT2.is_rational
    assert not (I * SQRT2).is_real
    assert rational(3, 7).is_rational


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_third_root_of_unity():
    from triality.field import OMEGA, OMEGA_BAR
    assert OMEGA ** 3 == ONE
    assert OMEGA * OMEGA_BAR == ONE
    assert OMEGA + OMEGA_BAR == rational(-1)


@given(scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
@settings(max_examples=60, deadline=None)
def test_inverse_times_self_is_one(a):
    assert a * a.inverse() == ONE


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_conj_is_an_involution(a):
    assert a.conj().conj() == a


@given(scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_conj_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


def test_str_round_readability():
    x = from_parts(re=(Fraction(1, 2), 0, 0, 0), im=(0, 0, Fraction(-1, 2), 0))
    assert str(x) == "1/2 - 1/2*i*sqrt3"
