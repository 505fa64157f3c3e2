"""spin(7) restrictions, the g2 intersection, and su(3) inside it."""

import pytest

from oracles import (cofactor_det, dense_trace, kernel_basis, naive_matmul,
                     su3_block)
from triality import subalgebras
from triality.clifford import EUCLIDEAN, LORENTZIAN
from triality.errors import NotClosed
from triality.field import HALF, I, MINUS_ONE, ONE, ZERO, rational
from triality.linalg import Subspace, det, is_closed
from triality.matrix import Matrix, combination, commutator
from triality.outer import graded_basis, killing_form, outer_h, outer_k, unpack
from triality.representations import (P_MATRIX, LieBasis, spinor_bases,
                                      vector_basis)
from triality.subalgebras import (BLOCK_FACTOR, g2_basis, gell_mann,
                                  intersect, intersect_pair, lambda_gram,
                                  restrict, su3_embedding, su3_transform)


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
    assert len(rv.gens) == 21
    assert all(0 not in idx for idx in rv.gens)
    assert is_closed(rv.matrices())
    assert is_closed(rl.matrices())


def test_a_restriction_is_a_basis_of_the_same_kind_and_signature(restricted):
    for r, b in zip(restricted, (vector_basis(EUCLIDEAN),
                                 *spinor_bases(EUCLIDEAN))):
        assert isinstance(r, LieBasis)
        assert (r.kind, r.signature) == (b.kind, b.signature)
        assert r.items() == tuple(item for item in b.items() if 0 not in item[0])
        assert r.span() == Subspace.from_matrices(r.matrices())
    assert restrict(vector_basis(LORENTZIAN), 3).signature == LORENTZIAN
    with pytest.raises(KeyError):
        restricted[0][(0, 1)]


@pytest.mark.parametrize("axis", [-1, 8, 9])
def test_an_axis_outside_0_to_7_is_rejected(axis):
    with pytest.raises(ValueError, match=f"axis {axis} "):
        restrict(vector_basis(EUCLIDEAN), axis)


def test_restricted_spinors_related_by_p(restricted):
    _, rl, rr = restricted
    for idx in rl.gens:
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
    constraints = vl_system.b_constraints()
    assert len(constraints) == 7
    text = {str(c) for c in constraints}
    assert text == {
        "b12 = b47 +b56",
        "b13 = -b46 +b57",
        "b14 = -b27 +b36",
        "b15 = -b26 +b37",
        "b16 = b25 -b34",
        "b17 = b24 +b35",
        "b23 = b45 +b67",
    }


def test_a_constraint_writes_every_kind_of_term():
    """The g2 constraints hold only unit coefficients, so a general one, a
    leading plus sign and an empty right side are pinned here; the LaTeX
    constraints write the same right side after "&="."""
    c = subalgebras.Constraint("b12", ((ONE, "b1"), (MINUS_ONE, "b2"),
                                       (HALF * I, "b3"), (rational(-2, 3), "b4")))
    assert str(c) == "b12 = b1 -b2 +(1/2*i)*b3 +(-2/3)*b4"
    assert c.right_side == "b1 -b2 +(1/2*i)*b3 +(-2/3)*b4"
    assert str(subalgebras.Constraint("b13", ((MINUS_ONE, "b1"),))) == "b13 = -b1"
    assert str(subalgebras.Constraint("b14", ())) == "b14 = 0"


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


def test_lambdas_are_numbered_from_one():
    g2 = g2_basis()
    assert all(g2[k] is g2.lambdas[k - 1] for k in range(1, 15))


@pytest.mark.parametrize("k", [0, -1, 15])
def test_a_lambda_number_outside_1_to_14_is_rejected(k):
    with pytest.raises(IndexError, match=f"Lambda_{k} "):
        g2_basis()[k]


# The pair (0-based) that NotClosed names when the sign of each
# _FAMILY_HALF entry in turn is flipped.
_BROKEN_PAIRS = ((0, 4), (0, 3), (0, 4), (0, 3), (0, 3), (0, 4), (0, 3),
                 (0, 4), (0, 1), (0, 3), (0, 2), (0, 2), (0, 3), (0, 1))
# The same for each _FAMILY_ROOT3 entry.
_BROKEN_ROOT3_PAIRS = (
    (3, 8), (3, 9), (0, 10), (0, 11), (0, 10), (0, 11), (3, 4), (0, 11),
    (0, 10), (0, 11), (0, 10), (0, 10), (0, 11), (0, 10), (0, 11), (3, 4),
    (3, 9), (3, 8), (3, 8), (3, 9), (3, 4))


def test_a_flipped_sign_in_the_lambda_table_is_not_closed(monkeypatch):
    """A flipped sign in either table raises NotClosed from the closure
    certificate, for the pinned pair whose bracket leaves the span."""
    for name, pairs in (("_FAMILY_HALF", _BROKEN_PAIRS),
                        ("_FAMILY_ROOT3", _BROKEN_ROOT3_PAIRS)):
        table = getattr(subalgebras, name)
        assert len(table) == len(pairs)
        for i, (r, c, k, s) in enumerate(table):
            monkeypatch.setattr(subalgebras, name,
                                table[:i] + ((r, c, k, -s),) + table[i + 1:])
            a, b = pairs[i]
            with pytest.raises(NotClosed, match=(
                    f"^bracket of generators {a} and {b} leaves the span$")
                    ) as err:
                g2_basis.__wrapped__()
            assert (err.value.a, err.value.b) == (a, b)
            assert not err.value.residual.is_zero
        monkeypatch.setattr(subalgebras, name, table)


def test_lambda_orthogonality_and_uniform_norm():
    gram = lambda_gram(g2_basis())
    for a in range(14):
        for b in range(14):
            assert gram[a, b] == (HALF if a == b else ZERO)


def test_trace_forms_equal_product_then_trace():
    """On every ordered pair of generators within each of the six bases,
    and of the 14 Lambdas, the Killing form equals the trace of the full
    product halved; so does each entry tr(X^dagger Y)/2 of the Lambda Gram
    matrix."""
    lams = g2_basis().lambdas
    families = [lams]
    for sig in (EUCLIDEAN, LORENTZIAN):
        families += [b.matrices() for b in (vector_basis(sig), *spinor_bases(sig))]
    for gens in families:
        for x in gens:
            for y in gens:
                assert killing_form(x, y) == HALF * dense_trace(x @ y)
    gram = lambda_gram(g2_basis())
    for a, x in enumerate(lams):
        dagger = x.dagger()
        for b, y in enumerate(lams):
            assert gram[a, b] == HALF * dense_trace(dagger @ y)


def test_swap_8_10_gives_commuting_pairs():
    """[Lambda_k, Lambda_{k+7}] = 0 for k = 1..7 in both namings: Lambda_1
    and Lambda_3, whose partners the swap changes, commute with both
    Lambda_8 and Lambda_10, so check 10's swap sub-checks pass either way."""
    swapped = g2_basis().swapped()
    plain = g2_basis().lambdas
    for k in range(7):
        assert commutator(swapped[k], swapped[k + 7]).is_zero
        assert commutator(plain[k], plain[k + 7]).is_zero
    for k in (0, 2):
        assert commutator(plain[k], plain[7]).is_zero
        assert commutator(plain[k], plain[9]).is_zero
    assert swapped[7] == plain[9] and swapped[9] == plain[7]
    assert (swapped[:7] + swapped[8:9] + swapped[10:]
            == plain[:7] + plain[8:9] + plain[10:])
    # generators 8 and 10 do not commute with each other in either naming
    assert not commutator(plain[7], plain[9]).is_zero


def test_triality_fixed_space_equals_the_lambda_span():
    graded = graded_basis(vector_basis(EUCLIDEAN), outer_h())
    fixed = Subspace.from_matrices(graded.g2_part)
    lam_span = Subspace.from_matrices(g2_basis().lambdas)
    assert fixed == lam_span


def test_the_space_fixed_by_h_and_k_is_the_lambda_span():
    """g2 as the stabilizer of the whole S3 = <H, K>: the coefficient
    vectors fixed by both generators span 14 dimensions, and over V they
    are exactly the span of the Lambdas."""
    one = Matrix.identity(28)
    system = [row for op in (outer_h(), outer_k())
              for row in (unpack(op) - one).T.rows]
    fixed = kernel_basis(system, 28)
    assert len(fixed) == 14
    v = vector_basis(EUCLIDEAN)
    mats = combination([tuple(vec.items()) for vec in fixed], v.matrices(), 8)
    assert Subspace.from_matrices(mats) == Subspace.from_matrices(g2_basis().lambdas)


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
            assert dense_trace(gm[a] @ gm[b]) == expected
        assert gm[a].is_hermitian


def test_su3_embedding_blocks_exact():
    emb = su3_embedding(g2_basis())
    assert emb.block_factor == -I * HALF
    for k, lam in enumerate(gell_mann(), start=1):
        expected = su3_block(lam).scale(BLOCK_FACTOR)
        assert emb.conjugated[k - 1] == expected
        # multiplying by i lands on the physics generators lambda/2
        physics = emb.conjugated[k - 1].scale(I)
        assert physics == su3_block(lam).scale(HALF)


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
    corrupted = G2Basis(lambdas=(g2.lambdas[1],) + g2.lambdas[1:])
    with pytest.raises(BlockMismatch) as err:
        su3_embedding(corrupted)
    assert err.value.k == 1
    assert err.value.got != err.value.expected
