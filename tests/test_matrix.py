"""Matrix algebra: products, brackets, Kronecker products, predicates."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense, dense_block2, dense_kron, dense_product, dense_sum,
                     dense_trace_product, dense_transpose,
                     naive_add_scaled, naive_anticommutator, naive_bracket,
                     naive_combination, naive_matmul)
from triality.clifford import I2, SIGMA_X, SIGMA_Y, SIGMA_Z
from triality.errors import DimensionMismatch
from triality.field import HALF, ExactScalar, I, ONE, SQRT2, ZERO
from triality.matrix import (Matrix, add_scaled, anticommutator, combination,
                             commutator, is_combination, kron, trace_product)
from triality.representations import vector_basis
from triality.subalgebras import intersect

# every p/q with q <= 2 and |p/q| <= 2, and more
small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
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


def test_constructors_take_any_iterable_and_equal_matrices_hash_equal():
    rows = [[1, HALF], [I, 0]]
    m = Matrix(rows)
    assert Matrix(iter(rows)) == m and Matrix(iter(row) for row in rows) == m
    assert Matrix.diag(x for x in (ONE, I)) == Matrix.diag([ONE, I])
    # equal matrices hash equal, with objects held alive between the two
    # hashes, so that a hash by the address of a temporary cannot match
    h = hash(m)
    held = [(x for x in ()) for _ in range(64)]
    assert hash(Matrix([[1, HALF], [I, 0]])) == h and held


def test_trace_and_dagger():
    m = Matrix(((I, ONE), (ZERO, -I)))
    assert trace_product(m, Matrix.identity(2)) == ZERO
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


@given(sparse_matrix(4, entries=10), sparse_matrix(4, entries=10))
@settings(max_examples=40, deadline=None)
def test_trace_product_agrees_with_definition(a, b):
    assert trace_product(a, b) == dense_trace_product(a, b)


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


# Coefficients of combination terms: a zero one, one-term ones and
# multi-term ones.  The combined matrices are 4x4 with unit entries, so
# sums cancel often, or with drawn entries, or now and then 3x3, a mixed
# size; each row of terms names them by position, and may end with the
# negation of its own terms, so that it cancels to zero.
term_coefficients = (st.just(ZERO) | st.sampled_from([ONE, -HALF, I, SQRT2])
                     | coefficients)
term_matrices = st.lists(sparse_matrix(4, values=units) | sparse_matrix(4)
                         | sparse_matrix(3, entries=1), min_size=1, max_size=4)


@st.composite
def combination_rows(draw, mats):
    """Rows of (position, coefficient) terms over ``mats``."""
    terms = st.tuples(st.integers(0, len(mats) - 1), term_coefficients)
    rows = []
    for row in draw(st.lists(st.lists(terms, max_size=4), max_size=4)):
        if draw(st.booleans()):
            row += [(k, -c) for k, c in row]
        rows.append(tuple(row))
    return rows


@given(st.data(), term_matrices)
@settings(max_examples=80, deadline=None)
def test_combination_matches_scale_then_add(data, mats):
    """Every row against scale-then-add, canonical, with a row of one
    unit term its matrix itself; a row that names a matrix of another
    size raises DimensionMismatch in both."""
    rows = data.draw(combination_rows(mats))
    try:
        want = [naive_combination([(c, mats[k]) for k, c in row], 4)
                for row in rows]
    except DimensionMismatch:
        with pytest.raises(DimensionMismatch):
            combination(rows, mats, 4)
        return
    got = combination(rows, mats, 4)
    assert got == want
    for m, row in zip(got, rows):
        assert _canonical(m)
        if len(row) == 1 and row[0][1] == ONE:
            assert m is mats[row[0][0]]


@given(st.data(), term_matrices,
       st.none() | sparse_matrix(4, entries=1, values=units))
@settings(max_examples=150, deadline=None)
def test_is_combination_matches_building_the_combination(data, mats, delta):
    """The cancellation test against building each combination, for
    targets that are the sums themselves, built by scale-then-add, or with
    a nonzero one-entry matrix added to the last one, which must fail; a
    term of another size raises DimensionMismatch."""
    rows = data.draw(combination_rows(mats))
    pairs = []
    for row in rows:
        try:
            m = naive_combination([(c, mats[k]) for k, c in row], 4)
        except DimensionMismatch:
            with pytest.raises(DimensionMismatch):
                is_combination(pairs + [(Matrix.zero(4), row)], mats)
            return
        pairs.append((m, row))
    assert is_combination(pairs, mats)
    if delta is not None and pairs:
        pairs[-1] = (pairs[-1][0] + delta, pairs[-1][1])
        assert not is_combination(pairs, mats)


def test_is_combination_on_empty_and_cancelling_terms():
    a = Matrix(((ONE, I), (ZERO, -ONE)))
    c = I + ONE
    mats = [a]
    assert is_combination([], mats)
    assert is_combination([(Matrix.zero(2), [])], mats)
    assert not is_combination([(a, [])], mats)
    assert is_combination([(Matrix.zero(2), [(0, c), (0, -c)])], mats)
    assert is_combination([(a.scale(c), [(0, ZERO), (0, c)])], mats)
    assert not is_combination([(a, [(0, c)])], mats)
    assert not is_combination([(a, [(0, ONE)]), (a, [(0, c)])], mats)
    assert not is_combination([(a, [(0, c)]), (Matrix.identity(3), [])], mats)
    with pytest.raises(DimensionMismatch):
        is_combination([(Matrix.identity(3), [(0, ZERO)])], mats)
    with pytest.raises(DimensionMismatch):
        is_combination([(a, [(0, ONE)]), (Matrix.identity(3), [])], mats)


@given(st.integers(1, 5).flatmap(lambda n: sparse_matrix(n, entries=12)))
@settings(max_examples=30, deadline=None)
def test_from_vector_inverts_vector(m):
    """Each entry back in its place, in the order of its row, as the
    scalar object ``vector()`` gave."""
    got = Matrix._from_vector(m.vector(), m.n)
    assert got == m and got.n == m.n
    assert [list(row.items()) for row in got.rows] == [
        list(row.items()) for row in m.rows]
    assert all(x is y for gr, mr in zip(got.rows, m.rows)
               for x, y in zip(gr.values(), mr.values()))


# One-term scalars on every coordinate with denominators 1-6, so that the
# kernel's fused path meets products on every coordinate; multi-term ones
# take the fallback.
one_term = st.builds(
    lambda k, num, den: ExactScalar([Fraction(num, den) if j == k else 0
                                     for j in range(8)]),
    st.integers(0, 7), st.integers(-6, 6).filter(bool), st.integers(1, 6))
kernel_scalars = st.integers(0, 3).flatmap(
    lambda i: one_term if i else coefficients.filter(bool))
kernel_rows = st.dictionaries(st.integers(0, 5), kernel_scalars, max_size=6)
# Ratios q for entries of v set to -q times the update: q = 1 cancels, and
# the others share the update's coordinate over an equal or other
# denominator.
ratios = st.dictionaries(st.integers(0, 5), st.just(Fraction(1)) | st.builds(
    Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 6)))


@given(kernel_rows, kernel_scalars, kernel_rows, st.sampled_from([1, -1]), ratios)
@settings(max_examples=150, deadline=None)
def test_the_row_kernel_matches_its_naive_oracle(v, c, w, sign, ratios):
    """``add_scaled`` with either sign against ``s + sign * (c * x)``
    entry by entry, with every stored entry in canonical form."""
    v = {**v, **{k: -sign * q * (c * w[k]) for k, q in ratios.items() if k in w}}
    want = naive_add_scaled(v, c, w, sign)
    got = dict(v)
    assert add_scaled(got, c, w, sign) is got
    assert got == want
    assert not any(k in got for k, q in ratios.items() if k in w and q == 1)
    for x in got.values():
        assert x.den > 0 and x.nums and gcd(x.den, *(n for _, n in x.nums)) == 1
        assert all(n for _, n in x.nums)
        assert [k for k, _ in x.nums] == sorted({k for k, _ in x.nums})


def test_combination_drops_cancelled_entries():
    a = Matrix(((ONE, I), (ZERO, -ONE)))
    c = I + ONE
    assert combination([((0, c), (0, -c))], [a], 2)[0].rows == ({}, {})
    assert combination([(), ((0, ONE),)], [a], 2) == [Matrix.zero(2), a]
    assert combination([], [a], 3) == []
    with pytest.raises(DimensionMismatch):
        combination([((0, ONE),)], [a], 3)
    with pytest.raises(DimensionMismatch):
        combination([((0, c),)], [a], 3)


def test_power_zero_is_the_identity():
    for m in (SIGMA_Y, Matrix.zero(3), vector_basis()[(0, 1)]):
        assert m.power(0) == Matrix.identity(m.n)
        assert m.power(1) == m


@given(sparse_matrix(4, entries=6, values=units))
@settings(max_examples=30, deadline=None)
def test_power_matches_repeated_products(m):
    """``power(k)``, which starts from the matrix, against k products of
    the matrix onto the identity, for k = 0..4."""
    product = Matrix.identity(4)
    for k in range(5):
        assert m.power(k) == product
        product = product @ m


def test_shapes_are_checked():
    with pytest.raises(DimensionMismatch):
        Matrix.from_entries(2, {(-1, 0): 1})
    with pytest.raises(DimensionMismatch):
        Matrix.identity(8).block(6, 6, 4)
    with pytest.raises(ValueError):
        Matrix.identity(3).power(-1)
    with pytest.raises(DimensionMismatch):
        Matrix.block2(I2, I2, I2, Matrix.identity(3))
    with pytest.raises(DimensionMismatch):
        trace_product(Matrix.identity(2), Matrix.identity(3))
    with pytest.raises(TypeError):  # sparse rows are not dense input
        Matrix(Matrix.identity(2).rows)


def test_a_matrix_is_not_iterable():
    """A flat list of matrices where a list of generator lists belongs
    fails at the mistake, not inside ``Matrix.__getitem__``."""
    i2, i4 = Matrix.identity(2), Matrix.identity(4)
    not_iterable = "^'Matrix' object is not iterable$"
    with pytest.raises(TypeError, match=not_iterable):
        iter(i2)
    with pytest.raises(TypeError, match=not_iterable):
        intersect([i2, i4])
