"""The six bases: entries, reality, spans, and matching structure constants."""

import pytest

from oracles import dense
from triality.clifford import EUCLIDEAN, LORENTZIAN
from triality.field import MINUS_ONE, ONE
from triality.linalg import Subspace
from triality.matrix import Matrix
from triality.representations import (GEN_INDICES, P_MATRIX, basis, same_span,
                                      same_structure_constants, spinor_bases,
                                      vector_basis)


def test_euclidean_vector_entries():
    v = vector_basis(EUCLIDEAN)
    assert v[(0, 1)][0, 1] == ONE and v[(0, 1)][1, 0] == MINUS_ONE
    assert sum(1 for row in dense(v[(0, 1)]) for x in row if x) == 2
    # flipped generators
    assert v[(1, 5)][1, 5] == MINUS_ONE and v[(1, 5)][5, 1] == ONE
    assert v[(2, 6)][2, 6] == MINUS_ONE and v[(2, 6)][6, 2] == ONE


def test_lorentzian_boost_entries():
    v = vector_basis(LORENTZIAN)
    assert v[(0, 3)][0, 3] == ONE and v[(0, 3)][3, 0] == ONE
    # rotations keep the euclidean form, including the flips
    assert v[(1, 5)][1, 5] == MINUS_ONE and v[(1, 5)][5, 1] == ONE


def test_all_euclidean_generators_real_antisymmetric():
    for kind in "VLR":
        b = basis(kind, EUCLIDEAN)
        for idx in GEN_INDICES:
            assert b[idx].is_real and b[idx].is_antisymmetric


def test_euclidean_spans_coincide():
    v = basis("V")
    for kind in "LR":
        report = same_span(v, basis(kind))
        assert report.equal and report.dim_union == 28
    assert same_span(v, v).equal


def test_left_equals_p_conjugated_right_for_spatial_indices():
    left, right = spinor_bases(EUCLIDEAN)
    for (i, j) in GEN_INDICES:
        if i > 0:
            assert left[(i, j)] == P_MATRIX @ right[(i, j)] @ P_MATRIX.T


def test_lorentzian_span_differs():
    report = same_span(vector_basis(LORENTZIAN), basis("L", LORENTZIAN))
    assert not report.equal
    assert report.dim_first == report.dim_second == 28


def test_structure_constants_match_within_each_signature():
    for sig in (EUCLIDEAN, LORENTZIAN):
        v = basis("V", sig)
        left = basis("L", sig)
        right = basis("R", sig)
        assert same_structure_constants(v, left).equal
        assert same_structure_constants(left, right).equal
        assert same_structure_constants(v, right).equal


def test_lorentzian_vector_preserves_eta():
    eta = Matrix.diag((ONE,) + (MINUS_ONE,) * 7)
    v = vector_basis(LORENTZIAN)
    for idx in GEN_INDICES:
        x = v[idx]
        assert (x.T @ eta + eta @ x).is_zero


def test_lorentzian_spinors_conjugate_pair():
    left, right = spinor_bases(LORENTZIAN)
    for idx in GEN_INDICES:
        assert left[idx].conj() == right[idx]


def test_lorentzian_hermiticity_split():
    left, right = spinor_bases(LORENTZIAN)
    for b in (left, right):
        for (i, j) in GEN_INDICES:
            if i == 0:
                assert b[(i, j)].is_hermitian
            else:
                assert b[(i, j)].is_antihermitian


def test_every_basis_has_rank_28():
    for sig in (EUCLIDEAN, LORENTZIAN):
        for kind in "VLR":
            assert Subspace.from_matrices(basis(kind, sig).matrices()).dim == 28


def test_spinor_generators_carry_the_half_normalization():
    left, _ = spinor_bases(EUCLIDEAN)
    entries = {abs(x.coords[0]) for row in dense(left[(0, 1)]) for x in row if x}
    assert entries == {0.5}


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        basis("X")


def test_basis_change_matrices():
    from triality.linalg import det
    from triality.field import I
    from triality.representations import M_MATRIX
    assert P_MATRIX == Matrix.diag([-1, 1, 1, 1, 1, 1, 1, 1])
    assert det(P_MATRIX) == MINUS_ONE
    assert P_MATRIX @ P_MATRIX == Matrix.identity(8)
    assert M_MATRIX == Matrix.diag([I] + [ONE] * 7)
    assert M_MATRIX.is_unitary
