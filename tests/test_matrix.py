"""Matrix algebra: products, brackets, Kronecker products, predicates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense, dense_block2, dense_kron, dense_product, dense_sum,
                     dense_transpose, naive_anticommutator, naive_bracket,
                     naive_combination, naive_matmul)
from triality.clifford import I2, SIGMA_X, SIGMA_Y, SIGMA_Z
from triality.errors import DimensionMismatch
from triality.field import ExactScalar, I, ONE, SQRT2, ZERO
from triality.matrix import (Matrix, anticommutator, combination, commutator,
                             kron)
from triality.representations import vector_basis

small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=2)
scalars = st.builds(ExactScalar, st.tuples(*([small_fractions] * 8)))


def sparse_matrix(n, entries=4, values=scalars):
    return st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), values),
        min_size=1, max_size=entries,
    ).map(lambda items: Matrix.from_entries(
        n, {(i, j): v for i, j, v in items}))


# Entries from five small values, so that sums of products cancel often and
# the row kernel has to drop the cancelled entries.
units = st.sampled_from([ONE, -ONE, I, -I, SQRT2])
cancelling8 = sparse_matrix(8, entries=16, values=units)


def test_commutator_of_equal_arguments_vanishes():
    v = vector_basis()
    m = v[(2, 5)]
    assert commutator(m, m).is_zero


def test_bracket_v01_v12_is_v02_against_naive_oracle():
    v = vector_basis()
    got = commutator(v[(0, 1)], v[(1, 2)])
    oracle = naive_bracket(v[(0, 1)], v[(1, 2)])
    assert got == oracle
    assert got == v[(0, 2)]


def test_matmul_matches_naive_oracle_on_vector_generators():
    v = vector_basis()
    a, b = v[(1, 4)], v[(4, 7)]
    assert (a @ b) == naive_matmul(a, b)


def test_kron_identities():
    assert kron(I2, Matrix.identity(4)) == Matrix.identity(8)
    expected = Matrix.diag([1, 1, 1, 1, -1, -1, -1, -1])
    assert kron(SIGMA_Z, Matrix.identity(4)) == expected


def test_kron_reproduces_a_clifford_generator():
    from triality.clifford import cl7_basis, dirac_gammas
    d = dirac_gammas()
    g5 = kron(SIGMA_X, d.gamma5 @ d.gammas[2])
    assert g5 == cl7_basis().gammas[4]


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        commutator(Matrix.identity(4), Matrix.identity(8))


def test_pauli_predicates():
    assert SIGMA_X.is_hermitian and SIGMA_Y.is_hermitian
    assert SIGMA_Y.is_unitary
    assert not SIGMA_Y.is_real
    assert SIGMA_X.is_real and SIGMA_X.is_symmetric
    assert (SIGMA_Y.scale(I)).is_antisymmetric


def test_trace_and_dagger():
    m = Matrix(((I, ONE), (ZERO, -I)))
    assert m.trace() == ZERO
    assert m.dagger()[0, 0] == -I
    assert m.dagger()[1, 0] == ONE


@given(sparse_matrix(8), sparse_matrix(8), sparse_matrix(8))
@settings(max_examples=25, deadline=None)
def test_jacobi_identity(a, b, c):
    total = (commutator(a, commutator(b, c))
             + commutator(b, commutator(c, a))
             + commutator(c, commutator(a, b)))
    assert total.is_zero


@given(sparse_matrix(3), sparse_matrix(3))
@settings(max_examples=25, deadline=None)
def test_matmul_agrees_with_definition(a, b):
    assert (a @ b) == naive_matmul(a, b)


def _canonical(m):
    """No stored entry is zero, so == on the sparse rows is exact."""
    return all(x for row in m.rows for x in row.values())


@given(sparse_matrix(4), sparse_matrix(4), sparse_matrix(4), sparse_matrix(4))
@settings(max_examples=40, deadline=None)
def test_operations_keep_the_canonical_form(a, b, c, d):
    zero = Matrix.zero(4)
    assert a - a == zero and (a - a).is_zero
    assert (a + b) - b == a
    assert a.scale(0) == zero
    for got, want in ((a + b, dense_sum(a, b)), (a @ b, dense_product(a, b)),
                      (commutator(a, b), dense(naive_bracket(a, b))),
                      (anticommutator(a, b), dense(naive_anticommutator(a, b))),
                      (a.transpose(), dense_transpose(a)),
                      (kron(a, b), dense_kron(a, b)),
                      (Matrix.block2(a, b, c, d), dense_block2(a, b, c, d))):
        assert _canonical(got) and dense(got) == want


@given(cancelling8, cancelling8, units)
@settings(max_examples=30, deadline=None)
def test_products_with_cancelling_entries_stay_canonical(a, b, c):
    """Products and brackets of 8x8 matrices with few distinct entries, and
    the brackets of a with c*a + b, whose a-a terms cancel in the
    accumulator."""
    near = a.scale(c) + b
    for got, want in ((a @ b, naive_matmul(a, b)),
                      (commutator(a, b), naive_bracket(a, b)),
                      (anticommutator(a, b), naive_anticommutator(a, b)),
                      (commutator(a, near), naive_bracket(a, b)),
                      (anticommutator(a, near), naive_anticommutator(a, near))):
        assert _canonical(got) and got == want


def test_brackets_that_vanish_store_no_entry():
    from triality.clifford import cl8_basis
    g = cl8_basis().gammas
    assert anticommutator(g[0], g[1]).rows == ({},) * 16
    assert commutator(g[2], g[2]).rows == ({},) * 16
    assert commutator(g[0] @ g[1], g[2] @ g[3]).rows == ({},) * 16
    with pytest.raises(DimensionMismatch):
        anticommutator(Matrix.identity(4), Matrix.identity(8))


# built from integer pairs: cheaper to draw than st.fractions, zero included
coefficients = st.builds(lambda nums, den: ExactScalar([Fraction(k, den) for k in nums]),
                         st.tuples(*([st.integers(-2, 2)] * 8)), st.integers(1, 3))


@given(st.lists(st.tuples(coefficients, sparse_matrix(4)), max_size=4))
@settings(max_examples=40, deadline=None)
def test_combination_matches_scale_then_add(terms):
    got = combination(terms, 4)
    assert _canonical(got) and got == naive_combination(terms, 4)


def test_combination_drops_cancelled_entries():
    a = Matrix(((ONE, I), (ZERO, -ONE)))
    c = I + ONE
    assert combination([(c, a), (-c, a)], 2).rows == ({}, {})
    assert combination([], 3) == Matrix.zero(3)
    with pytest.raises(DimensionMismatch):
        combination([(ONE, a)], 3)


def test_shapes_are_checked():
    with pytest.raises(DimensionMismatch):
        Matrix.from_entries(2, {(-1, 0): 1})
    with pytest.raises(DimensionMismatch):
        Matrix.identity(8).block(6, 6, 4)
    with pytest.raises(ValueError):
        Matrix.identity(3).power(-1)
    with pytest.raises(DimensionMismatch):
        Matrix.block2(I2, I2, I2, Matrix.identity(3))
    with pytest.raises(TypeError):  # sparse rows are not dense input
        Matrix(Matrix.identity(2).rows)
