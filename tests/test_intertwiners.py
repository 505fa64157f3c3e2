"""V, L and R are three inequivalent irreducible representations of
so(8): Schur's lemma, read off the dimension of each intertwiner space.

The verify checks compare bases entry by entry, which cannot rule out that
L is V in another basis.  An 8x8 S with S X_a = Y_a S for all 28
generators answers that: 1,792 equations in 64 unknowns, solved exactly.

The three spin(7)s whose meet is g2 are pairwise non-conjugate: the
vectors a subalgebra fixes in each of V, L and R are counted, and
conjugation in SO(8) keeps all three counts.

Every generator family is orthogonal under tr(X^dagger Y), with one norm
per family: its Gram matrix is read entry by entry.

Octonionic local triality builds L and R a second way, with no code shared
with ``clifford``: for each Euclidean V_ij, the B and C of
A(xy) = B(x)y + xC(y) on the octonions.  The B family is L and the C family
is R, each up to a change of basis, and neither is V.
"""

import pytest

from oracles import (dense, dense_trace_product, fixed_vectors,
                     intertwiner_dim, local_triality, octonion_table)
from triality.clifford import EUCLIDEAN, LORENTZIAN
from triality.field import ONE, ZERO, rational
from triality.matrix import Matrix
from triality.outer import graded_basis, signature_ops
from triality.representations import basis, vector_basis
from triality.subalgebras import g2_basis, restrict

FAMILIES = ("V", "L", "R")
SIGNATURES = pytest.mark.parametrize("signature", [EUCLIDEAN, LORENTZIAN],
                                     ids=["8,0", "1,7"])


@SIGNATURES
def test_each_family_is_irreducible_and_the_three_are_inequivalent(signature):
    gens = {kind: basis(kind, signature).matrices() for kind in FAMILIES}
    dims = {(a, b): intertwiner_dim(gens[a], gens[b])
            for a in FAMILIES for b in FAMILIES}
    assert dims == {(a, b): int(a == b) for a in FAMILIES for b in FAMILIES}


@SIGNATURES
def test_a_permuted_copy_of_v_is_equivalent_to_v(signature):
    """P V P^T for a permutation P, built entry by entry: (P X P^T) at
    (perm[i], perm[j]) is X at (i, j)."""
    perm = (3, 0, 6, 1, 7, 2, 5, 4)
    v = basis("V", signature).matrices()
    moved = [Matrix.from_entries(8, {(perm[i], perm[j]): m[i, j]
                                     for i in range(8) for j in range(8)})
             for m in v]
    assert moved != list(v)
    assert intertwiner_dim(v, moved) == 1


def _eights():
    return tuple(basis(kind, EUCLIDEAN).matrices() for kind in FAMILIES)


@pytest.mark.parametrize("axis", range(8))
def test_the_three_spin7s_each_fix_a_vector_of_another_eight(axis):
    """rv, rl and rr, the V, L and R generators with the axis dropped, fix
    one vector of V, R and L in turn: the counts form a permutation
    matrix, so no two of the three are conjugate in SO(8)."""
    fixed = [fixed_vectors(restrict(basis(kind, EUCLIDEAN), axis).matrices(),
                           _eights()) for kind in FAMILIES]
    assert fixed == [(1, 0, 0), (0, 0, 1), (0, 1, 0)]


def test_g2_fixes_one_vector_of_each_eight():
    assert fixed_vectors(g2_basis().lambdas, _eights()) == (1, 1, 1)


@pytest.fixture(scope="module")
def local_triality_families():
    v = basis("V", EUCLIDEAN).matrices()
    return (v, *local_triality(v))


def test_local_triality_holds_on_every_pair_of_basis_octonions(
        local_triality_families):
    """A(e_a e_b) = B(e_a) e_b + e_a C(e_b), with each side expanded through
    the octonion table into the coordinates of the product."""
    table = octonion_table()

    def times(u, v, out):  # out + uv, octonions as {basis index: coordinate}
        for a, x in u.items():
            for b, y in v.items():
                sign, k = table[a, b]
                out[k] = out.get(k, ZERO) + x * y * sign
        return out

    def column(m, a):  # m e_a
        return {k: row[a] for k, row in enumerate(dense(m))}

    for am, bm, cm in zip(*local_triality_families):
        for x in range(8):
            for y in range(8):
                sign, k = table[x, y]
                left = {i: z * sign for i, z in column(am, k).items()}
                right = times({x: ONE}, column(cm, y),
                              times(column(bm, x), {y: ONE}, {}))
                assert left == right, (x, y)


def test_the_b_family_is_l_and_the_c_family_is_r(local_triality_families):
    _, bs, cs = local_triality_families
    assert intertwiner_dim(bs, basis("L", EUCLIDEAN).matrices()) == 1
    assert intertwiner_dim(cs, basis("R", EUCLIDEAN).matrices()) == 1


def test_neither_local_triality_family_is_v(local_triality_families):
    v, bs, cs = local_triality_families
    assert intertwiner_dim(bs, v) == intertwiner_dim(cs, v) == 0



def _family(kind, signature):
    if kind == "lambdas":
        return g2_basis().lambdas
    if kind in FAMILIES:
        return basis(kind, signature).matrices()
    graded = graded_basis(vector_basis(signature), signature_ops(signature)[0])
    return graded.g2_part if kind == "graded-g2" else graded.all_generators()


# the eleven families: V, L, R, the graded basis and its g2 part in each
# signature, and the Lambdas
GRAM_FAMILIES = [(kind, sig) for sig in (EUCLIDEAN, LORENTZIAN)
                 for kind in (*FAMILIES, "graded", "graded-g2")]
GRAM_FAMILIES.append(("lambdas", EUCLIDEAN))


@pytest.mark.parametrize("kind, signature", GRAM_FAMILIES,
                         ids=[f"{kind}{sig}" for kind, sig in GRAM_FAMILIES])
def test_each_family_is_orthogonal_with_one_norm(kind, signature):
    """tr(X_a^dagger X_b) over every pair a <= b, by the definition sum:
    the Gram matrix is Hermitian, so that half is all of it.  Each
    generator has norm^2 2, and each Lambda 1."""
    gens = _family(kind, signature)
    assert len(gens) == (14 if kind in ("graded-g2", "lambdas") else 28)
    norm = ONE if kind == "lambdas" else rational(2)
    for a, x in enumerate(gens):
        xd = x.dagger()
        for b in range(a, len(gens)):
            assert dense_trace_product(xd, gens[b]) == (
                norm if a == b else ZERO), (a, b)
