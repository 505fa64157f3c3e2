"""Outer automorphisms: quartets, cycling, S3, diagonalization, grading."""

import pytest

from oracles import (coefficient_rows, dense, dense_coefficients,
                     dense_row_image, h_core, naive_combination, t_core)
from triality.clifford import EUCLIDEAN, LORENTZIAN, Signature
from triality.errors import ClosureExceeded, SignatureMismatch, TrialityError
from triality.field import (HALF, I, MINUS_ONE, OMEGA, OMEGA_BAR, ONE, SQRT2,
                            ZERO, rational)
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


def _core(name):
    """An operator core, a diagonalizer transpose ``U<op>^T``, or a core
    whose rows store their entries in reverse slot order (``<op>~``)."""
    if name.startswith("U"):
        return diagonalize(name[1]).change_of_basis.T
    core = outer_op(name.rstrip("~")).core
    if name.endswith("~"):
        core = Matrix._of((dict(reversed(row.items())) for row in core.rows), 4)
    return core


@pytest.mark.parametrize("name", ["H", "K", "T", "conj", "UH^T", "UT^T", "H~"])
def test_quartet_terms_walk_the_quartets(name):
    """Entry by entry through core[t, s], on the four operator cores, on
    the two diagonalizer transposes, which have zero slots, and on a core
    stored out of order.  The expected tuples run over s = 0..3, so the
    equality also pins each terms tuple to slot order."""
    core = _core(name)
    expected = {}
    for k in range(7):
        for t in range(4):
            expected[QUARTETS[t][k]] = tuple(
                (QUARTETS[s][k], core[t, s]) for s in range(4)
                if core[t, s] != ZERO)
    terms = quartet_terms(core)
    assert terms == expected
    if name.startswith("U"):
        assert any(len(pairs) < 4 for pairs in terms.values())


@pytest.mark.parametrize("op, oracle", [(outer_h, h_core), (outer_t, t_core)])
def test_cores_match_their_printed_tables(op, oracle):
    """The cores are placed from ready scalars; the oracle builds them as
    the paper prints them, so a sign slip in either table fails here."""
    assert dense(op().core) == dense(oracle())


def test_signature_ops_pair_each_signature():
    assert [op.name for op in signature_ops(EUCLIDEAN)] == ["H", "K"]
    assert [op.name for op in signature_ops(LORENTZIAN)] == ["T", "conj"]
    for sig in (EUCLIDEAN, LORENTZIAN):
        assert all(op.signature == sig for op in signature_ops(sig))


def test_graded_coefficients_are_the_unpacked_eigenvectors():
    u = diagonalize("H").change_of_basis
    rows = unpack(OuterOp("U^T", u.T, False, EUCLIDEAN))
    graded = graded_basis(vector_basis(EUCLIDEAN), outer_h())
    order = [idx for row in QUARTETS for idx in row]
    for vec, idx in zip(graded.coeff_vectors, order):
        p = GEN_INDICES.index(idx)
        assert dense_coefficients(vec, 28) == [rows[p, k] for k in range(28)]


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
    assert unpack(outer_h()).power(3) == Matrix.identity(28)
    assert unpack(outer_k()).power(2) == Matrix.identity(28)
    t28 = unpack(outer_t())
    assert t28.power(3) == Matrix.identity(28)
    assert t28.power(2) == t28.conj()


def _mapped(op, vectors: Matrix) -> Matrix:
    """Coefficient row vectors mapped by an operator: conjugated first when
    it is antilinear, then times the unpacked matrix."""
    return (vectors.conj() if op.antilinear else vectors) @ unpack(op)


@pytest.mark.parametrize("op_name, order",
                         [("H", 3), ("K", 2), ("T", 3), ("conj", 2)])
def test_unpack_maps_sparse_coefficient_rows(op_name, order):
    """The image of c times unit vector p is (conj) c times row p of the
    unpacked matrix, read through m[i, j]; mapping up to the operator's
    order comes back to the start, so every sum that cancels on the way
    is dropped, not stored."""
    op = outer_op(op_name)
    c = ONE + I
    scaled = c.conj() if op.antilinear else c
    start = Matrix.identity(28).scale(c)
    out = _mapped(op, start)
    assert dense(out) == [[unpack(op)[p, k] * scaled for k in range(28)]
                          for p in range(28)]
    for _ in range(order - 1):
        out = _mapped(op, out)
    assert out == start


@pytest.mark.parametrize("op_name", ["H", "K", "T", "conj"])
def test_unpack_matches_the_dense_column_sweep(op_name):
    """A product with the unpacked matrix, which adds up only each
    vector's own rows, against the sweep over all 28 columns: on every
    unit vector, with a one-term and a multi-term coefficient, and on the
    graded coefficient vectors of both signatures, each conjugated first
    when the operator is antilinear."""
    op = outer_op(op_name)
    m = unpack(op)
    vectors = [{p: c} for p in range(28) for c in (-HALF, ONE + I)]
    for sig in (EUCLIDEAN, LORENTZIAN):
        vectors += graded_basis(vector_basis(sig),
                                signature_ops(sig)[0]).coeff_vectors
    for start in range(0, len(vectors), 28):
        chunk = vectors[start:start + 28]
        rows = _mapped(op, coefficient_rows(chunk)).rows
        for vec, row in zip(chunk, rows):
            if op.antilinear:
                vec = {k: x.conj() for k, x in vec.items()}
            assert row == dense_row_image(m, vec)


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


@pytest.mark.parametrize("kind", ["V", "L", "R"])
@pytest.mark.parametrize("op_name", ["H", "K", "T", "conj"])
def test_apply_outer_matches_scale_then_add(op_name, kind):
    op = outer_op(op_name)
    b = basis(kind, op.signature)
    olds = {idx: m.conj() if op.antilinear else m for idx, m in b.items()}
    mapped = apply_outer(op, b)
    for new, pairs in quartet_terms(op.core).items():
        assert mapped[new] == naive_combination(
            [(c, olds[old]) for old, c in pairs], 8), new


@pytest.mark.parametrize("kind", ["V", "L"])
@pytest.mark.parametrize("signature", [EUCLIDEAN, LORENTZIAN], ids=["8,0", "1,7"])
def test_graded_basis_matches_scale_then_add(signature, kind):
    """Each graded generator is its own coefficient vector over the source
    basis, summed by scaling and adding whole matrices."""
    b = basis(kind, signature)
    graded = graded_basis(b, signature_ops(signature)[0])
    for gen, vec in zip(graded.all_generators(), graded.coeff_vectors):
        assert gen == naive_combination(
            [(c, b[idx]) for idx, c in zip(GEN_INDICES,
                                          dense_coefficients(vec, 28)) if c],
            8)


def test_signature_mismatch_rejected():
    with pytest.raises(SignatureMismatch):
        apply_outer(outer_h(), vector_basis(LORENTZIAN))
    with pytest.raises(SignatureMismatch):
        apply_outer(outer_t(), vector_basis(EUCLIDEAN))
    with pytest.raises(SignatureMismatch,
                       match=r"^unsupported signature \(4,4\)$"):
        signature_ops(Signature(4, 4))


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


def test_a_closure_past_twelve_elements_raises():
    """A cyclic group of order 12 (a 3-cycle beside i) closes; one of
    order 24 (beside a primitive eighth root of unity) raises
    ClosureExceeded at its 13th distinct element, holding all 13."""
    def cyclic(root):
        core = Matrix.from_entries(4, {(0, 1): 1, (1, 2): 1, (2, 0): 1, (3, 3): root})
        return [OuterOp("c", core, False, EUCLIDEAN)]

    closure = s3_closure(cyclic(I))
    assert len(closure.elements) == 12 and closure.order_counts[12] == 4
    with pytest.raises(ClosureExceeded) as err:
        s3_closure(cyclic(SQRT2 * HALF * (ONE + I)))
    assert err.value.count == 13 == len(err.value.elements)


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
    rows = dense(h.core)
    rows[0][0] = -rows[0][0]
    corrupted = OuterOp("H", Matrix(rows), False, h.signature)
    monkeypatch.setattr(outer, "outer_h", lambda: corrupted)
    with pytest.raises(TrialityError, match="similarity"):
        diagonalize("H")


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
    vectors = graded_v.coeff_vectors
    images = (coefficient_rows(vectors) @ unpack(op)).rows
    for pos, (vec, image) in enumerate(zip(vectors, images)):
        lam = graded_v.eigenvalue_of(pos)
        out = dense_coefficients(image, 28)
        assert out == [lam * x for x in dense_coefficients(vec, 28)]


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
