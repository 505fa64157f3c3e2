"""Field arithmetic over Q(i, sqrt2, sqrt3): examples and axioms."""

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from triality.field import (ExactScalar, HALF, I, ONE, SQRT2, SQRT3, SQRT6,
                            ZERO, from_parts, rational)

# every p/q with q <= 4 and |p/q| <= 4, and more; integer pairs draw far
# faster than st.fractions
small_fractions = st.builds(Fraction, st.integers(-16, 16), st.integers(1, 4))
scalars = st.builds(ExactScalar, st.tuples(*([small_fractions] * 8)))
nonzero_scalars = scalars.filter(lambda x: not x.is_zero)
# every one of the eight coordinates nonzero
full_scalars = st.builds(ExactScalar,
                         st.tuples(*([small_fractions.filter(bool)] * 8)))

# Dense 8-tuples with at most three nonzero coordinates drawn from a few
# values, so sums and products often cancel exactly.
sparse_coords = st.dictionaries(
    st.integers(0, 7), st.sampled_from([Fraction(k, 2) for k in (-3, -2, -1, 1, 2)]),
    max_size=3).map(lambda d: tuple(d.get(k, Fraction(0)) for k in range(8)))


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


def test_coordinates_must_be_exact():
    for inexact in (0.1, "1/10", Decimal("0.1")):
        with pytest.raises(TypeError):
            from_parts(re=(inexact, 0, 0, 0))
    with pytest.raises(ValueError):
        ExactScalar((1,) * 7)
    tenth = Fraction(1, 10)
    first = from_parts(re=(tenth, 0, 0, 0)).coords[0]
    assert first == tenth and type(first) is Fraction
    assert from_parts(im=(3, 0, 0, 0)).coords[4] == Fraction(3)


def test_coordinates_may_come_from_any_iterable():
    """Eight coordinates from a generator, and parts given as lists or
    generators, build the same scalar as tuples do."""
    assert ExactScalar(Fraction(k, 2) for k in (1, 0, 0, 0, 0, 0, 0, 0)) == HALF
    assert from_parts(re=[0, 1, 0, 0], im=(c for c in (1, 0, 0, 0))) == SQRT2 + I
    assert from_parts(re=(c for c in (1, 0, 0, 0))) == ONE


def test_rationals_hash_like_the_numbers_they_equal():
    assert len({ONE, 1}) == 1
    assert hash(HALF) == hash(Fraction(1, 2))
    assert hash(ZERO) == hash(0)
    assert {rational(2, 3): "x"}[Fraction(2, 3)] == "x"


def test_third_root_of_unity():
    from triality.field import OMEGA, OMEGA_BAR
    assert OMEGA * OMEGA * OMEGA == ONE
    assert OMEGA * OMEGA_BAR == ONE
    assert OMEGA + OMEGA_BAR == rational(-1)


@given(full_scalars)
@settings(max_examples=60, deadline=None)
def test_parts_split_every_coordinate(x):
    """Each coordinate k lands in ``re`` (k < 4) or ``im`` (k >= 4) at
    k mod 4; no check reaches the split, since check 03 only meets real
    entries."""
    re, im = x.parts()
    assert re.is_real and im.is_real
    assert re + I * im == x
    zeros = (Fraction(0),) * 4
    assert re.coords == x.coords[:4] + zeros
    assert im.coords == x.coords[4:] + zeros


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


# a coordinate of 0, +-1, an integer or a fraction, each sign of each
coordinate_values = (st.sampled_from([0, 1, -1]) | st.integers(-40, 40)
                     | st.builds(Fraction, st.integers(-60, 60), st.integers(1, 36)))


@given(st.tuples(*([coordinate_values] * 8)))
@settings(max_examples=300, deadline=None)
def test_str_matches_the_fraction_formatter(coords):
    x = ExactScalar(coords)
    assert str(x) == oracles.fraction_str(x)


@pytest.mark.parametrize("k", range(8))
def test_str_of_each_coordinate_matches_the_fraction_formatter(k):
    """Coordinate k alone, after a rational term and before an i*sqrt6
    term, with coefficient +-1, an integer or a fraction of either sign,
    over denominator 1 and not."""
    for c in (1, -1, 3, -3, Fraction(1, 2), Fraction(-5, 6)):
        for other in (None, 0, 7):
            coords = [Fraction(0)] * 8
            if other is not None and other != k:
                coords[other] = Fraction(2, 3)
            coords[k] = Fraction(c)
            x = ExactScalar(coords)
            assert str(x) == oracles.fraction_str(x), (c, other)


def _reduced_form(x):
    """``x`` stores nonzero integer numerators in strictly increasing
    coordinate order over a positive denominator, with gcd 1."""
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int and c for _, c in x.nums)
    indices = [k for k, _ in x.nums]
    assert indices == sorted(set(indices)) and set(indices) <= set(range(8))
    assert gcd(x.den, *(c for _, c in x.nums)) == 1


def _canonical(x, dense):
    """``x`` is in reduced form, stores exactly the nonzero coordinates of
    ``dense`` and prints them in coordinate order."""
    _reduced_form(x)
    assert x.coords == tuple(dense)
    assert str(x) == oracles.dense_str(dense)


@given(sparse_coords, sparse_coords)
@settings(max_examples=200, deadline=None)
def test_sparse_arithmetic_matches_the_dense_oracle(a, b):
    x, y = ExactScalar(a), ExactScalar(b)
    _canonical(x, a)
    _canonical(x + y, oracles.dense_add(a, b))
    _canonical(x - y, oracles.dense_sub(a, b))
    _canonical(x * y, oracles.dense_mul(a, b))
    _canonical(-x, oracles.dense_neg(a))
    _canonical(x.conj(), oracles.dense_conj(a))
    assert (x == y) == (a == b)
    if x:
        inv = x.inverse()
        _reduced_form(inv)
        assert x * inv == ONE
    if not any(a[1:]):
        assert hash(x) == hash(a[0])


@given(st.integers(0, 7), small_fractions.filter(bool))
@settings(max_examples=200, deadline=None)
def test_one_term_inverse_matches_the_dense_oracle(k, c):
    a = tuple(c if i == k else Fraction(0) for i in range(8))
    inv = ExactScalar(a).inverse()
    _canonical(inv, oracles.dense_monomial_inverse(a))
    assert oracles.dense_mul(a, inv.coords) == ONE.coords


@given(sparse_coords, sparse_coords)
@settings(max_examples=200, deadline=None)
def test_cancellation_leaves_the_canonical_form(a, b):
    x, y = ExactScalar(a), ExactScalar(b)
    assert (x - x).nums == () and (x - x).den == 1
    back = (x + y) - y
    _reduced_form(back)
    assert (back.den, back.nums) == (x.den, x.nums)
    assert back == x and hash(back) == hash(x)
    assert (x * y - y * x).nums == ()
