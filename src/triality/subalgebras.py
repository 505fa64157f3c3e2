"""spin(7) restrictions, their triple intersection g2, and su(3) inside it.

Removing one axis from each of the three 28-generator bases leaves three
mutually non-conjugate 21-generator spin(7) subalgebras.  Their common
span is 14-dimensional: the compact g2, presented both by solved linear
constraints on the generator coefficients and by an explicit orthogonal
basis Lambda_1..Lambda_14 whose first eight members close into a standard
su(3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BlockMismatch, ClosureFailure
from .field import (HALF, I, MINUS_ONE, ONE, SQRT2, SQRT3, ZERO, ExactScalar,
                    rational)
from .linalg import CoordSolver, Subspace, stacked_solve
from .matrix import Matrix, commutator
from .representations import GEN_INDICES, LieBasis


@dataclass(frozen=True, eq=False)
class RestrictedBasis:
    """The 21 generators of a basis whose indices avoid one axis."""

    kind: str
    axis: int
    indices: tuple
    gens: tuple

    def __getitem__(self, idx) -> Matrix:
        return self.gens[self.indices.index(idx)]

    def matrices(self):
        return self.gens

    def span(self) -> Subspace:
        return Subspace.from_matrices(self.gens)


def restrict(b: LieBasis, axis: int) -> RestrictedBasis:
    """Drop every generator whose index pair touches ``axis``."""
    indices = tuple(idx for idx in GEN_INDICES if axis not in idx)
    return RestrictedBasis(b.kind, axis,
                           indices, tuple(b[idx] for idx in indices))


@dataclass(frozen=True)
class Constraint:
    """One solved relation: dependent = sum of (coefficient, variable)."""

    dependent: str
    terms: tuple  # ((ExactScalar, str), ...)

    def __str__(self):
        if not self.terms:
            return f"{self.dependent} = 0"
        parts = []
        for coeff, var in self.terms:
            if coeff == ONE:
                parts.append(f"+{var}")
            elif coeff == MINUS_ONE:
                parts.append(f"-{var}")
            else:
                parts.append(f"+({coeff})*{var}")
        joined = " ".join(parts)
        if joined.startswith("+"):
            joined = joined[1:]
        return f"{self.dependent} = {joined}"


# Dependent coefficients, in presentation order: the seven solved b's.
DEPENDENT_B = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3))


@dataclass(frozen=True, eq=False)
class IntersectionSystem:
    """The stacked linear system sum a_ij V_ij = sum b_ij L_ij, solved.

    ``subspace`` is the 14-dimensional common span (of flattened 8x8
    matrices); ``constraints`` solve the dependents (all a's, then b12,
    b13, b14, b15, b16, b17, b23) in terms of the 14 free b coefficients;
    ``rank`` is the rank of the 64 x 42 stacked system.
    """

    subspace: Subspace
    constraints: tuple
    rank: int
    unknowns: int

    def b_constraints(self):
        return tuple(c for c in self.constraints if c.dependent.startswith("b"))


def intersect_pair(first: RestrictedBasis, second: RestrictedBasis) -> IntersectionSystem:
    """Exact intersection of two restricted spans with named constraints."""
    # column order: a's (first basis), dependent b's, then free b's
    s_order = [idx for idx in DEPENDENT_B if idx in second.indices]
    s_order += [idx for idx in second.indices if idx not in s_order]
    names = ([f"a{i}{j}" for i, j in first.indices]
             + [f"b{i}{j}" for i, j in s_order])
    red, pivots, common = stacked_solve(
        [m.vector() for m in first.gens], [second[idx].vector() for idx in s_order])
    free = [c for c in range(len(names)) if c not in pivots]
    constraints = tuple(
        Constraint(names[p], tuple((-row[f], names[f]) for f in free if f in row))
        for row, p in zip(red, pivots))
    subspace = Subspace.from_vectors(common, first.gens[0].n ** 2)
    return IntersectionSystem(subspace=subspace, constraints=constraints,
                              rank=len(red), unknowns=len(names))


def intersect(span_lists) -> Subspace:
    """Intersection of any number of generator-list spans."""
    spans = [Subspace.from_matrices(list(gens)) for gens in span_lists]
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


@dataclass(frozen=True, eq=False)
class G2Basis:
    """The 14 orthogonal generators Lambda_1..Lambda_14 of the intersection.

    Lambda_1..Lambda_7 carry entries +-1/2 and are "like" the first seven
    Gell-Mann matrices; Lambda_8..Lambda_14 carry weights 1 and 2 over
    2 sqrt3 and are "like" the eighth.  Lambda_1..Lambda_8 close into a
    standard su(3).  All norms are 1/2 under kappa(X, Y) = tr(X^dagger Y)/2
    (equivalently: orthonormal under the plain trace pairing).
    """

    lambdas: tuple
    theta_labels: tuple

    def __getitem__(self, k: int) -> Matrix:
        """1-indexed access matching the generator numbering."""
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
    """Construct Lambda_1..Lambda_14 and verify closure under the bracket."""
    entries = [dict() for _ in range(15)]
    for r, c, k, s in _FAMILY_HALF:
        entries[k][(r, c)] = HALF * s
        entries[k][(c, r)] = -HALF * s
    root3_unit = (SQRT3 * rational(1, 6))  # 1/(2 sqrt3)
    for r, c, k, s in _FAMILY_ROOT3:
        entries[k][(r, c)] = root3_unit * s
        entries[k][(c, r)] = -(root3_unit * s)
    lambdas = tuple(Matrix.from_entries(8, entries[k]) for k in range(1, 15))
    solver = CoordSolver(lambdas)
    for a in range(14):
        for b in range(a + 1, 14):
            if solver.solve(commutator(lambdas[a], lambdas[b])) is None:
                raise ClosureFailure(a + 1, b + 1)
    return G2Basis(lambdas=lambdas,
                   theta_labels=tuple(f"theta{k}" for k in range(1, 15)))


def frobenius_pairing(x: Matrix, y: Matrix) -> ExactScalar:
    """<X, Y> = tr(X^dagger Y) / 2, the pairing used for orthogonality."""
    return HALF * (x.dagger() @ y).trace()


def lambda_gram(g2: G2Basis):
    """The full 14 x 14 Gram matrix of the Lambda family."""
    lams = g2.lambdas
    return Matrix(tuple(tuple(frobenius_pairing(a, b) for b in lams)
                        for a in lams))


# -- su(3) embedding ----------------------------------------------------------

@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


@dataclass(frozen=True, eq=False)
class Su3Embedding:
    """The conjugated Lambda family with its verified block decomposition."""

    transform: Matrix         # the 7x7 special unitary
    gellmann: tuple           # the eight reference matrices
    conjugated: tuple         # U Lambda_k U^dagger for k = 1..14 (7x7)
    block_factor: ExactScalar


def block_target(k: int) -> Matrix:
    """diag(0, l_k, -l_k^T) as a 7x7 matrix, for k = 1..8."""
    lam = gell_mann()[k - 1]
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
    for k in range(1, 9):
        expected = block_target(k).scale(BLOCK_FACTOR)
        got = conjugated[k - 1]
        if got != expected:
            for i in range(7):
                for j in range(7):
                    if got[i, j] != expected[i, j]:
                        raise BlockMismatch(k, (i, j), got[i, j], expected[i, j])
    return Su3Embedding(transform=u, gellmann=gell_mann(),
                        conjugated=conjugated, block_factor=BLOCK_FACTOR)
