"""V, L and R are three inequivalent irreducible representations of
so(8): Schur's lemma, read off the dimension of each intertwiner space.

The verify checks compare bases entry by entry, which cannot rule out that
L is V in another basis.  An 8x8 S with S X_a = Y_a S for all 28
generators answers that: 1,792 equations in 64 unknowns, solved exactly.

The three spin(7)s whose meet is g2 are pairwise non-conjugate: the
vectors a subalgebra fixes in each of V, L and R are counted, and
conjugation in SO(8) keeps all three counts.
"""

import pytest

from oracles import fixed_vectors, intertwiner_dim
from triality.clifford import EUCLIDEAN, LORENTZIAN
from triality.matrix import Matrix
from triality.representations import basis
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
