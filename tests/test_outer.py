"""Outer automorphisms: quartets, cycling, S3, diagonalization, grading."""

import pytest

from triality.clifford import EUCLIDEAN, LORENTZIAN
from triality.errors import SignatureMismatch, TrialityError
from triality.field import (HALF, I, MINUS_ONE, OMEGA, OMEGA_BAR, ONE, ZERO,
                            rational)
from triality.linalg import Subspace, is_closed
from triality.matrix import Matrix, commutator
from triality.outer import (QUARTETS, OuterOp, apply_outer, diagonalize,
                            graded_basis, killing_form, killing_trace,
                            outer_conj, outer_h, outer_k, outer_op, outer_t,
                            quartet_terms, s3_closure, signature_ops, unpack)
from triality.representations import (GEN_INDICES, P_MATRIX, basis,
                                      spinor_bases, vector_basis)


def test_quartets_partition_the_28_indices():
    seen = [idx for row in QUARTETS for idx in row]
    assert len(seen) == 28
    assert sorted(seen) == list(GEN_INDICES)


@pytest.mark.parametrize("op_name", ["H", "K", "T", "conj"])
def test_quartet_terms_walk_the_quartets(op_name):
    core = outer_op(op_name).core
    expected = {}
    for k in range(7):
        for t in range(4):
            expected[QUARTETS[t][k]] = tuple(
                (QUARTETS[s][k], core[t, s]) for s in range(4)
                if core[t, s] != ZERO)
    assert quartet_terms(core) == expected


def test_signature_ops_pair_each_signature():
    assert [op.name for op in signature_ops(EUCLIDEAN)] == ["H", "K"]
    assert [op.name for op in signature_ops(LORENTZIAN)] == ["T", "conj"]
    for sig in (EUCLIDEAN, LORENTZIAN):
        assert all(op.signature == sig for op in signature_ops(sig))


def test_graded_coefficients_are_the_unpacked_eigenvectors():
    u = diagonalize("H").change_of_basis
    columns = unpack(OuterOp("U^T", u.T, False, EUCLIDEAN)).matrix
    graded = graded_basis(vector_basis(EUCLIDEAN), outer_h())
    order = [idx for row in QUARTETS for idx in row]
    for vec, idx in zip(graded.coeff_vectors, order):
        col = GEN_INDICES.index(idx)
        assert vec == tuple(columns[r, col] for r in range(28))


def test_h_core_as_printed():
    h = outer_h().core
    assert h[0, 0] == -HALF and h[0, 2] == HALF and h[1, 3] == HALF
    assert h.power(3) == Matrix.identity(4)
    assert h.power(2) == (outer_k().core @ h @ outer_k().core)


def test_t_core_identities():
    t = outer_t().core
    assert t.is_symmetric
    assert t[0, 1] == I * HALF and t[0, 0] == -HALF
    assert t.power(3) == Matrix.identity(4)
    assert t.power(2) == t.conj()
    assert t.power(2) @ t == Matrix.identity(4)


def test_unpack_orders():
    assert unpack(outer_h()).matrix.power(3) == Matrix.identity(28)
    assert unpack(outer_k()).matrix.power(2) == Matrix.identity(28)
    t28 = unpack(outer_t())
    assert t28.matrix.power(3) == Matrix.identity(28)
    assert t28.matrix.power(2) == t28.matrix.conj()


def test_euclidean_cycle_hits_the_constructed_bases():
    v, (left, right) = vector_basis(EUCLIDEAN), spinor_bases(EUCLIDEAN)
    step = apply_outer(outer_h(), v)
    assert step.kind == "L"
    assert all(step[idx] == left[idx] for idx in GEN_INDICES)
    step = apply_outer(outer_h(), step)
    assert step.kind == "R"
    assert all(step[idx] == right[idx] for idx in GEN_INDICES)
    step = apply_outer(outer_h(), step)
    assert step.kind == "V"
    assert all(step[idx] == v[idx] for idx in GEN_INDICES)


def test_lorentzian_cycle_hits_the_constructed_bases():
    v, (left, right) = vector_basis(LORENTZIAN), spinor_bases(LORENTZIAN)
    step = apply_outer(outer_t(), v)
    assert all(step[idx] == left[idx] for idx in GEN_INDICES)
    step = apply_outer(outer_t(), step)
    assert all(step[idx] == right[idx] for idx in GEN_INDICES)
    step = apply_outer(outer_t(), step)
    assert all(step[idx] == v[idx] for idx in GEN_INDICES)


def test_k_needs_the_p_cleanup():
    left, right = spinor_bases(EUCLIDEAN)
    mapped = apply_outer(outer_k(), left)
    assert mapped.kind == "R"
    assert any(mapped[idx] != right[idx] for idx in GEN_INDICES)
    assert all(P_MATRIX @ mapped[idx] @ P_MATRIX.T == right[idx]
               for idx in GEN_INDICES)


def test_conjugation_needs_no_cleanup():
    left, right = spinor_bases(LORENTZIAN)
    mapped = apply_outer(outer_conj(), left)
    assert all(mapped[idx] == right[idx] for idx in GEN_INDICES)
    back = apply_outer(outer_conj(), mapped)
    assert all(back[idx] == left[idx] for idx in GEN_INDICES)


def test_signature_mismatch_rejected():
    with pytest.raises(SignatureMismatch):
        apply_outer(outer_h(), vector_basis(LORENTZIAN))
    with pytest.raises(SignatureMismatch):
        apply_outer(outer_t(), vector_basis(EUCLIDEAN))


def test_outer_maps_preserve_structure_constants():
    from triality.linalg import structure_constants
    v = vector_basis(EUCLIDEAN)
    mapped = apply_outer(outer_h(), v)
    assert structure_constants(v.matrices()) == \
        structure_constants(mapped.matrices())
    vl = vector_basis(LORENTZIAN)
    mapped = apply_outer(outer_t(), vl)
    assert structure_constants(vl.matrices()) == \
        structure_constants(mapped.matrices())


def test_s3_closures():
    euclid = s3_closure([outer_h(), outer_k()])
    assert len(euclid.elements) == 6
    assert euclid.is_s3 and euclid.relation_holds
    assert euclid.order_counts == {1: 1, 2: 3, 3: 2}
    lorentz = s3_closure([outer_t(), outer_conj()])
    assert len(lorentz.elements) == 6
    assert lorentz.is_s3 and lorentz.relation_holds
    cyclic = s3_closure([outer_h()])
    assert len(cyclic.elements) == 3


def test_diagonalize_h():
    d = diagonalize("H")
    u = d.change_of_basis
    assert u.is_unitary
    # the (0,1,0,1)/sqrt2 column is a genuine fixed vector of H itself
    h = outer_h().core
    col = Matrix.from_entries(4, {(r, 0): u[r, 0] for r in range(4)})
    assert (h @ col) == col
    # the similarity holds for the action on quartet coefficients
    assert (h.T @ u) == (u @ d.diagonal)
    # K in the eigenbasis swaps the two handed eigenspaces
    k_prime = u.dagger() @ outer_k().core @ u
    assert k_prime == Matrix(((1, 0, 0, 0), (0, 1, 0, 0),
                              (0, 0, 0, 1), (0, 0, 1, 0)))


def test_diagonalize_rejects_a_corrupted_core(monkeypatch):
    import triality.outer as outer
    h = outer_h()
    rows = [list(r) for r in h.core.rows]
    rows[0][0] = -rows[0][0]
    corrupted = OuterOp("H", Matrix(rows), False, h.signature)
    monkeypatch.setattr(outer, "outer_h", lambda: corrupted)
    with pytest.raises(TrialityError, match="similarity"):
        diagonalize.__wrapped__("H")


def test_diagonalize_t_is_real_orthogonal():
    d = diagonalize("T")
    b = d.change_of_basis
    assert b.is_real and b.is_orthogonal
    t = outer_t().core
    assert (t @ b) == (b @ d.diagonal)          # T = B D B^T literally
    assert d.diagonal == Matrix.diag((ONE, ONE, OMEGA, OMEGA_BAR))


@pytest.mark.parametrize("signature,op_name", [(EUCLIDEAN, "H"),
                                               (LORENTZIAN, "T")])
def test_graded_eigenvalue_labels(signature, op_name):
    op = outer_op(op_name)
    v = vector_basis(signature)
    left = basis("L", signature)
    graded_v = graded_basis(v, op)
    graded_l = graded_basis(left, op)
    for a, b in zip(graded_v.g2_part, graded_l.g2_part):
        assert a == b
    for a, b in zip(graded_v.right_part, graded_l.right_part):
        assert b == a.scale(OMEGA)
    for a, b in zip(graded_v.left_part, graded_l.left_part):
        assert b == a.scale(OMEGA_BAR)
    unpacked = unpack(op)
    for pos, vec in enumerate(graded_v.coeff_vectors):
        lam = graded_v.eigenvalue_of(pos)
        assert all(o == lam * x for o, x in zip(unpacked.apply(vec), vec))


@pytest.mark.parametrize("signature,op_name", [(EUCLIDEAN, "H"),
                                               (LORENTZIAN, "T")])
def test_grading_commutator_structure(signature, op_name):
    graded = graded_basis(vector_basis(signature), outer_op(op_name))
    assert is_closed(graded.g2_part)
    assert not is_closed(graded.right_part + graded.left_part)
    span_g2 = Subspace.from_matrices(graded.g2_part)
    span_r = Subspace.from_matrices(graded.right_part)
    span_l = Subspace.from_matrices(graded.left_part)
    for i in range(7):
        for j in range(i + 1, 7):
            assert span_l.contains_matrix(
                commutator(graded.right_part[i], graded.right_part[j]))
            assert span_r.contains_matrix(
                commutator(graded.left_part[i], graded.left_part[j]))
    for i in range(7):
        for j in range(7):
            assert span_g2.contains_matrix(
                commutator(graded.right_part[i], graded.left_part[j]))


@pytest.mark.parametrize("signature,op_name", [(EUCLIDEAN, "H"),
                                               (LORENTZIAN, "T")])
def test_sibling_pairing(signature, op_name):
    graded = graded_basis(vector_basis(signature), outer_op(op_name))
    gens = graded.all_generators()
    for i, r in enumerate(graded.right_part):
        commuting = [j for j, l in enumerate(graded.left_part)
                     if commutator(r, l).is_zero]
        assert len(commuting) == 1
        sibling = graded.left_part[commuting[0]]
        partners = [g for g in gens if killing_form(r, g) != ZERO]
        assert partners == [sibling]


def test_killing_traces():
    assert killing_trace(vector_basis(EUCLIDEAN).matrices()) == rational(-28)
    graded = graded_basis(vector_basis(EUCLIDEAN), outer_h())
    assert killing_trace(graded.all_generators()) == rational(-14)
    for x in graded.right_part + graded.left_part:
        assert killing_form(x, x) == ZERO
    assert killing_trace(vector_basis(LORENTZIAN).matrices()) == rational(-14)


def test_graded_form_preservation():
    graded = graded_basis(vector_basis(EUCLIDEAN), outer_h())
    h_form = Matrix.diag((ONE,) + (MINUS_ONE,) * 7)
    for x in graded.all_generators():
        assert x.is_antisymmetric
        assert (x.dagger() @ h_form + h_form @ x).is_zero
    graded_l = graded_basis(vector_basis(LORENTZIAN), outer_t())
    eta = Matrix.diag((ONE,) + (MINUS_ONE,) * 7)
    for x in graded_l.all_generators():
        assert (x.T @ eta + eta @ x).is_zero
