"""spin(7) restrictions, the g2 intersection, and su(3) inside it."""

import pytest

from oracles import cofactor_det, naive_matmul
from triality.clifford import EUCLIDEAN
from triality.field import HALF, I, ONE, ZERO, rational
from triality.linalg import Subspace, det, is_closed
from triality.matrix import Matrix, commutator
from triality.outer import graded_basis, outer_h
from triality.representations import (P_MATRIX, spinor_bases, vector_basis)
from triality.subalgebras import (BLOCK_FACTOR, block_target, g2_basis,
                                  gell_mann, intersect, intersect_pair,
                                  lambda_gram, restrict, su3_embedding,
                                  su3_transform)


@pytest.fixture(scope="module")
def restricted():
    v = vector_basis(EUCLIDEAN)
    left, right = spinor_bases(EUCLIDEAN)
    return restrict(v, 0), restrict(left, 0), restrict(right, 0)


@pytest.fixture(scope="module")
def vl_system(restricted):
    rv, rl, _ = restricted
    return intersect_pair(rv, rl)


def test_restriction_keeps_21_generators_and_closes(restricted):
    rv, rl, rr = restricted
    assert len(rv.indices) == 21
    assert all(0 not in idx for idx in rv.indices)
    assert is_closed(rv.matrices())
    assert is_closed(rl.matrices())


def test_restricted_spinors_related_by_p(restricted):
    _, rl, rr = restricted
    for idx in rl.indices:
        assert rl[idx] == P_MATRIX @ rr[idx] @ P_MATRIX.T


def test_restricted_vector_and_spinor_spans_differ(restricted):
    rv, rl, _ = restricted
    union = Subspace.from_vectors(
        rv.span().rows + rl.span().rows, 64)
    assert rv.span().dim == 21 and rl.span().dim == 21
    assert union.dim == 28  # so neither span contains the other


def test_intersection_has_dimension_14_rank_28(vl_system):
    assert vl_system.subspace.dim == 14
    assert vl_system.rank == 28
    assert vl_system.unknowns == 42


def test_constraints_match_the_expected_relations(vl_system):
    text = {str(c) for c in vl_system.b_constraints()}
    assert text == {
        "b12 = b47 +b56",
        "b13 = -b46 +b57",
        "b14 = -b27 +b36",
        "b15 = -b26 +b37",
        "b16 = b25 -b34",
        "b17 = b24 +b35",
        "b23 = b45 +b67",
    }


def test_a_coefficients_equal_b_coefficients(vl_system):
    solved = {c.dependent: dict((var, coeff) for coeff, var in c.terms)
              for c in vl_system.constraints}
    for idx_name in [d[1:] for d in solved if d.startswith("a")]:
        a_terms = solved["a" + idx_name]
        b_terms = solved.get("b" + idx_name, {"b" + idx_name: ONE})
        assert a_terms == b_terms


def test_pairwise_intersections_coincide(restricted, vl_system):
    rv, rl, rr = restricted
    vr = intersect_pair(rv, rr)
    lr = intersect_pair(rl, rr)
    assert vr.subspace == vl_system.subspace
    assert lr.subspace == vl_system.subspace
    # the two callers of the stacked solve order their columns differently
    assert rv.span().intersection(rl.span()) == vl_system.subspace
    triple = intersect([rv.matrices(), rl.matrices(), rr.matrices()])
    assert triple == vl_system.subspace


def test_intersect_is_idempotent(restricted):
    rv, _, _ = restricted
    s = intersect([rv.matrices(), rv.matrices()])
    assert s == rv.span()


def test_lambdas_live_inside_the_intersection(vl_system):
    g2 = g2_basis()
    for lam in g2.lambdas:
        assert vl_system.subspace.contains_matrix(lam)


def test_lambda_family_shape():
    g2 = g2_basis()
    for lam in g2.lambdas:
        assert lam.is_real and lam.is_antisymmetric
        assert all(not lam[(0, j)] for j in range(8))
        assert all(not lam[(j, 0)] for j in range(8))


def test_lambda_closure_and_su3():
    g2 = g2_basis()
    assert is_closed(g2.lambdas)
    assert is_closed(g2.su3_part())


def test_lambda_orthogonality_and_uniform_norm():
    gram = lambda_gram(g2_basis())
    for a in range(14):
        for b in range(14):
            assert gram[a, b] == (HALF if a == b else ZERO)


def test_swap_8_10_gives_commuting_pairs():
    swapped = g2_basis().swapped()
    for k in range(7):
        assert commutator(swapped[k], swapped[k + 7]).is_zero
    plain = g2_basis().lambdas
    assert swapped[7] == plain[9] and swapped[9] == plain[7]
    # generators 8 and 10 do not commute with each other in either naming
    assert not commutator(plain[7], plain[9]).is_zero


def test_triality_fixed_space_equals_the_lambda_span():
    graded = graded_basis(vector_basis(EUCLIDEAN), outer_h())
    fixed = Subspace.from_matrices(graded.g2_part)
    lam_span = Subspace.from_matrices(g2_basis().lambdas)
    assert fixed == lam_span


def test_su3_transform_by_oracles():
    u = su3_transform()
    assert naive_matmul(u, u.dagger()) == Matrix.identity(7)
    assert cofactor_det(u) == ONE
    assert det(u) == ONE


def test_gell_mann_normalization():
    gm = gell_mann()
    for a in range(8):
        for b in range(8):
            expected = rational(2) if a == b else ZERO
            assert (gm[a] @ gm[b]).trace() == expected
        assert gm[a].is_hermitian


def test_su3_embedding_blocks_exact():
    emb = su3_embedding(g2_basis())
    assert emb.block_factor == -I * HALF
    for k in range(1, 9):
        expected = block_target(k).scale(BLOCK_FACTOR)
        assert emb.conjugated[k - 1] == expected
        # multiplying by i lands on the physics generators lambda/2
        physics = emb.conjugated[k - 1].scale(I)
        assert physics == block_target(k).scale(HALF)


def test_su3_embedding_off_blocks_vanish():
    emb = su3_embedding(g2_basis())
    for k in range(1, 9):
        m = emb.conjugated[k - 1]
        for i in range(7):
            for j in range(7):
                in_three = 1 <= i <= 3 and 1 <= j <= 3
                in_threebar = 4 <= i and 4 <= j
                if not (in_three or in_threebar or i == j == 0):
                    assert m[i, j] == ZERO


def test_block_mismatch_identifies_the_failure():
    from triality.errors import BlockMismatch
    from triality.subalgebras import G2Basis
    g2 = g2_basis()
    corrupted = G2Basis(lambdas=(g2.lambdas[1],) + g2.lambdas[1:],
                        theta_labels=g2.theta_labels)
    with pytest.raises(BlockMismatch) as err:
        su3_embedding(corrupted)
    assert err.value.k == 1
    assert err.value.got != err.value.expected
