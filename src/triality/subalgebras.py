"""spin(7) restrictions, their triple intersection g2, and su(3) inside it.

Removing one axis from each of the three 28-generator bases leaves three
mutually non-conjugate 21-generator spin(7) subalgebras.  Their common
span is 14-dimensional: the compact g2, presented both by solved linear
constraints on the generator coefficients and by an explicit orthogonal
basis Lambda_1..Lambda_14 whose first eight members close into a standard
su(3).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from ._record import Record
from .errors import BlockMismatch
from .field import HALF, I, MINUS_ONE, ONE, SQRT2, SQRT3, ZERO, rational
from .linalg import Subspace, same_structure, stacked_solve
from .matrix import Matrix, trace_product
from .representations import LieBasis


def restrict(b: LieBasis, axis: int) -> LieBasis:
    """Drop every generator whose index pair touches ``axis``."""
    if axis not in range(8):
        raise ValueError(f"axis {axis!r} is not one of 0..7")
    return LieBasis(b.kind, b.signature, MappingProxyType(
        {idx: m for idx, m in b.gens.items() if axis not in idx}))


class Constraint(Record):
    """One solved relation: dependent = sum of (coefficient, variable)."""

    __slots__ = ("dependent",
                 "terms")       # ((ExactScalar, str), ...)

    @property
    def right_side(self) -> str:
        """The terms as text, as ``str`` writes them after "dependent = "."""
        parts = [f"+{var}" if c == ONE else f"-{var}" if c == MINUS_ONE
                 else f"+({c})*{var}" for c, var in self.terms]
        return " ".join(parts).removeprefix("+") or "0"

    def __str__(self):
        return f"{self.dependent} = {self.right_side}"


class IntersectionSystem(Record, eq=False):
    """The stacked linear system sum a_ij V_ij = sum b_ij L_ij, solved.

    ``subspace`` is the 14-dimensional common span (of flattened 8x8
    matrices); ``constraints`` solve the dependents (all a's, then b12,
    b13, b14, b15, b16, b17, b23) in terms of the 14 free b coefficients;
    ``rank`` is the rank of the 64 x 42 stacked system.
    """

    __slots__ = ("subspace", "constraints", "rank", "unknowns")

    def b_constraints(self):
        return tuple(c for c in self.constraints if c.dependent.startswith("b"))


def intersect_pair(first: LieBasis, second: LieBasis) -> IntersectionSystem:
    """Exact intersection of two restricted spans with named constraints.

    The columns are the a's of ``first`` and then the b's of ``second``,
    each in generator order, and the elimination pivots on the leading
    columns: for the axis-0 restrictions the seven leading b's (b12 ..
    b17, b23) come out dependent and the other 14 free."""
    names = ([f"a{i}{j}" for i, j in first.gens]
             + [f"b{i}{j}" for i, j in second.gens])
    firsts = first.matrices()
    red, pivots, common = stacked_solve(
        [m.vector() for m in firsts], [m.vector() for m in second.matrices()])
    free = [c for c in range(len(names)) if c not in pivots]
    constraints = tuple(
        Constraint(names[p], tuple((-row[f], names[f]) for f in free if f in row))
        for row, p in zip(red, pivots))
    subspace = Subspace.from_vectors(common, firsts[0].n ** 2)
    return IntersectionSystem(subspace=subspace, constraints=constraints,
                              rank=len(red), unknowns=len(names))


def intersect(span_lists) -> Subspace:
    """Intersection of any number of generator-list spans."""
    spans = [Subspace.from_matrices(list(gens)) for gens in span_lists]
    if not spans:
        raise ValueError("intersection of an empty list of spans")
    out = spans[0]
    for s in spans[1:]:
        out = out.intersection(s)
    return out


# -- the Lambda basis ---------------------------------------------------------
# Entry tables for the two families, on axes 1..7 (axis 0 stays empty).
# Each item: (row, col, generator number, sign or signed weight).
_FAMILY_HALF = (
    (2, 4, 6, 1), (2, 5, 7, 1), (2, 6, 5, -1), (2, 7, 4, 1),
    (3, 4, 7, 1), (3, 5, 6, -1), (3, 6, 4, 1), (3, 7, 5, 1),
    (4, 5, 3, 1), (4, 6, 1, 1), (4, 7, 2, 1),
    (5, 6, 2, -1), (5, 7, 1, 1),
    (6, 7, 3, -1),
)
_FAMILY_ROOT3 = (
    (1, 2, 9, -2), (1, 3, 10, -2), (1, 4, 11, -2), (1, 5, 12, 2),
    (1, 6, 14, -2), (1, 7, 13, -2),
    (2, 3, 8, -2), (2, 4, 13, -1), (2, 5, 14, -1), (2, 6, 12, -1), (2, 7, 11, 1),
    (3, 4, 14, 1), (3, 5, 13, -1), (3, 6, 11, -1), (3, 7, 12, -1),
    (4, 5, 8, -1), (4, 6, 10, 1), (4, 7, 9, -1),
    (5, 6, 9, -1), (5, 7, 10, -1),
    (6, 7, 8, -1),
)


class G2Basis(Record, eq=False):
    """The 14 orthogonal generators Lambda_1..Lambda_14 of the intersection.

    Lambda_1..Lambda_7 carry entries +-1/2 and are "like" the first seven
    Gell-Mann matrices; Lambda_8..Lambda_14 carry weights 1 and 2 over
    2 sqrt3 and are "like" the eighth.  Lambda_1..Lambda_8 close into a
    standard su(3).  All norms are 1/2 under kappa(X, Y) = tr(X^dagger Y)/2
    (equivalently: orthonormal under the plain trace pairing).
    """

    __slots__ = ("lambdas",)

    def __getitem__(self, k: int) -> Matrix:
        """1-indexed access matching the generator numbering."""
        if not 1 <= k <= len(self.lambdas):
            raise IndexError(f"Lambda_{k} is not one of Lambda_1..Lambda_14")
        return self.lambdas[k - 1]

    def su3_part(self):
        return self.lambdas[:8]

    def swapped(self):
        """The relabeling exchanging generators 8 and 10.

        In the swapped naming the su(3) subalgebra is less obvious but
        [Lambda_k, Lambda_{k+7}] = 0 holds for k = 1..7.
        """
        out = list(self.lambdas)
        out[7], out[9] = out[9], out[7]
        return tuple(out)


@lru_cache(maxsize=None)
def g2_basis() -> G2Basis:
    """Construct Lambda_1..Lambda_14, proved closed by ``same_structure``;
    a mistyped table entry raises NotClosed for a walked pair (0-based)
    whose bracket leaves the span."""
    entries = [dict() for _ in range(15)]
    for r, c, k, s in _FAMILY_HALF:
        entries[k][(r, c)] = HALF * s
        entries[k][(c, r)] = -HALF * s
    root3_unit = (SQRT3 * rational(1, 6))  # 1/(2 sqrt3)
    for r, c, k, s in _FAMILY_ROOT3:
        entries[k][(r, c)] = root3_unit * s
        entries[k][(c, r)] = -(root3_unit * s)
    lambdas = tuple(Matrix.from_entries(8, entries[k]) for k in range(1, 15))
    same_structure(lambdas)
    return G2Basis(lambdas)


def lambda_gram(g2: G2Basis):
    """The full 14 x 14 Gram matrix of the Lambda family under the pairing
    <X, Y> = tr(X^dagger Y) / 2, with each Lambda's dagger taken once."""
    lams = g2.lambdas
    return Matrix(tuple(tuple(HALF * trace_product(d, b) for b in lams)
                        for d in (a.dagger() for a in lams)))


# -- su(3) embedding ----------------------------------------------------------

def gell_mann():
    """The eight standard Gell-Mann matrices, tr(l_a l_b) = 2 delta_ab."""
    third_root = SQRT3 * rational(1, 3)  # 1/sqrt3
    return (
        Matrix(((ZERO, ONE, ZERO), (ONE, ZERO, ZERO), (ZERO, ZERO, ZERO))),
        Matrix(((ZERO, -I, ZERO), (I, ZERO, ZERO), (ZERO, ZERO, ZERO))),
        Matrix.diag((ONE, MINUS_ONE, ZERO)),
        Matrix(((ZERO, ZERO, ONE), (ZERO, ZERO, ZERO), (ONE, ZERO, ZERO))),
        Matrix(((ZERO, ZERO, -I), (ZERO, ZERO, ZERO), (I, ZERO, ZERO))),
        Matrix(((ZERO, ZERO, ZERO), (ZERO, ZERO, ONE), (ZERO, ONE, ZERO))),
        Matrix(((ZERO, ZERO, ZERO), (ZERO, ZERO, -I), (ZERO, I, ZERO))),
        Matrix.diag((third_root, third_root, -2 * third_root)),
    )


def su3_transform() -> Matrix:
    """The 7x7 special unitary aligning the su(3) part with 1 + 3 + 3bar."""
    c = SQRT2 * HALF       # 1/sqrt2
    ic = I * c
    z = ZERO
    return Matrix((
        (ONE, z, z, z, z, z, z),
        (z, z, z, z, z, c, -ic),
        (z, z, z, -ic, -c, z, z),
        (z, -c, -ic, z, z, z, z),
        (z, z, z, z, z, -ic, c),
        (z, z, z, c, ic, z, z),
        (z, ic, c, z, z, z, z),
    ))


# The unit factor forced by Hermiticity bookkeeping: the Lambdas are
# anti-Hermitian while the Gell-Mann matrices are Hermitian, so
# U Lambda_k U^dagger = -(i/2) diag(0, l_k, -l_k^T); multiplying the
# Lambdas by i ("the physics convention") yields the generators
# diag(0, l_k/2, -l_k^T/2).
BLOCK_FACTOR = -I * HALF


class Su3Embedding(Record, eq=False):
    """The conjugated Lambda family with its verified block decomposition."""

    __slots__ = ("transform",     # the 7x7 special unitary
                 "conjugated",    # U Lambda_k U^dagger for k = 1..14 (7x7)
                 "block_factor")


def _block(lam: Matrix) -> Matrix:
    """diag(0, lam, -lam^T) as a 7x7 matrix, for a 3x3 lam."""
    entries = {}
    for i, row in enumerate(lam.rows):
        for j, x in row.items():
            entries[(1 + i, 1 + j)] = x
            entries[(4 + j, 4 + i)] = -x
    return Matrix.from_entries(7, entries)


def su3_embedding(g2: G2Basis) -> Su3Embedding:
    """Conjugate the Lambda family by the 7x7 unitary and verify the blocks.

    Raises BlockMismatch identifying the first failing entry if any of
    Lambda_1..Lambda_8 misses the shape BLOCK_FACTOR * diag(0, l_k, -l_k^T).
    """
    u = su3_transform()
    ud = u.dagger()
    conjugated = tuple(u @ lam.block(1, 1, 7) @ ud for lam in g2.lambdas)
    for k, lam in enumerate(gell_mann(), start=1):
        expected = _block(lam).scale(BLOCK_FACTOR)
        got = conjugated[k - 1]
        if got != expected:
            for i in range(7):
                for j in range(7):
                    if got[i, j] != expected[i, j]:
                        raise BlockMismatch(k, (i, j), got[i, j], expected[i, j])
    return Su3Embedding(transform=u, conjugated=conjugated,
                        block_factor=BLOCK_FACTOR)
