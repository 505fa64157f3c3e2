"""Gamma-matrix ladders: Dirac, Cl(7), real Cl(8,0), and real Cl(1,7).

The construction climbs from the 4-dimensional Dirac algebra to a purely
imaginary basis g_1..g_7 for Cl(7), doubles to a completely real basis
Gamma_0..Gamma_7 for Cl(8,0), and separately to a real basis for Cl(1,7)
together with its chiral change of basis.  Generators carry their axis
labels 0..7 so representation builders can reference (i, j) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .field import HALF, I, MINUS_ONE, ONE, SQRT2, ZERO, rational
from .matrix import Matrix, anticommutator, kron

# Pauli matrices and the Dirac-basis gamma blocks.
SIGMA_X = Matrix(((ZERO, ONE), (ONE, ZERO)))
SIGMA_Y = Matrix(((ZERO, -I), (I, ZERO)))
SIGMA_Z = Matrix(((ONE, ZERO), (ZERO, MINUS_ONE)))
I2 = Matrix.identity(2)


@dataclass(frozen=True)
class Signature:
    """Metric signature (p pluses, q minuses); eta = diag(+1^p, -1^q)."""

    p: int
    q: int

    @property
    def n(self) -> int:
        return self.p + self.q

    def eta_diag(self):
        return (ONE,) * self.p + (MINUS_ONE,) * self.q

    def eta(self) -> Matrix:
        return Matrix.diag(self.eta_diag())

    def __str__(self):
        return f"({self.p},{self.q})"


EUCLIDEAN = Signature(8, 0)
LORENTZIAN = Signature(1, 7)


@dataclass(frozen=True)
class GammaBasis:
    """An ordered gamma ladder satisfying {G_i, G_j} = 2 eta_ij, exactly.

    ``labels`` are the axis indices the generators carry (the Cl(7)
    ladder is labeled 1..7, the 16-dimensional ladders 0..7).
    """

    signature: Signature
    gammas: tuple
    labels: tuple = ()
    gamma5: Optional[Matrix] = None

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(range(len(self.gammas))))

    @property
    def dim(self) -> int:
        return self.gammas[0].n

    def __len__(self):
        return len(self.gammas)

    def __getitem__(self, i) -> Matrix:
        return self.gammas[i]

    def clifford_defect(self, i: int, j: int) -> Matrix:
        """{G_i, G_j} - 2 eta_ij I; the zero matrix iff the relation holds."""
        eta = self.signature.eta_diag()
        target = Matrix.identity(self.dim).scale(rational(2) * eta[i]) \
            if i == j else Matrix.zero(self.dim)
        return anticommutator(self.gammas[i], self.gammas[j]) - target

    def satisfies_clifford(self) -> bool:
        k = len(self.gammas)
        return all(self.clifford_defect(i, j).is_zero
                   for i in range(k) for j in range(i, k))


@dataclass(frozen=True)
class VolumeElement:
    """The ordered product of all gammas and what it does."""

    omega: Matrix
    squares_to_plus_identity: bool
    squares_to_minus_identity: bool
    anticommutes_with_all: bool


@lru_cache(maxsize=None)
def dirac_gammas() -> GammaBasis:
    """Dirac-basis gammas for signature (1,3), plus gamma5 = i g0 g1 g2 g3."""
    z2 = Matrix.zero(2)
    g0 = Matrix.block2(I2, z2, z2, -I2)
    g1 = Matrix.block2(z2, SIGMA_X, -SIGMA_X, z2)
    g2 = Matrix.block2(z2, SIGMA_Y, -SIGMA_Y, z2)
    g3 = Matrix.block2(z2, SIGMA_Z, -SIGMA_Z, z2)
    gamma5 = (g0 @ g1 @ g2 @ g3).scale(I)
    return GammaBasis(Signature(1, 3), (g0, g1, g2, g3), gamma5=gamma5)


@lru_cache(maxsize=None)
def cl7_basis() -> GammaBasis:
    """The completely imaginary basis g_1..g_7 for Cl(7), dimension 8.

    Built from tensor products of Pauli matrices with degree-0/1/2 Dirac
    elements; every entry is purely imaginary and {g_i, g_j} = 2 delta_ij.
    """
    d = dirac_gammas()
    g0, g1, g2, g3 = d.gammas
    g5 = d.gamma5
    i4 = Matrix.identity(4)
    gs = (
        kron(SIGMA_Z, g1 @ g3).scale(I),
        kron(SIGMA_Z, g3).scale(I),
        kron(SIGMA_Z, g1).scale(I),
        -kron(SIGMA_Y, i4),
        kron(SIGMA_X, g5 @ g2),
        kron(SIGMA_X, g0 @ g5).scale(I),
        kron(SIGMA_X, g2 @ g0),
    )
    return GammaBasis(Signature(7, 0), gs, labels=tuple(range(1, 8)))


@lru_cache(maxsize=None)
def cl8_basis() -> GammaBasis:
    """The completely real basis Gamma_0..Gamma_7 for Cl(8,0), dimension 16."""
    i8 = Matrix.identity(8)
    z8 = Matrix.zero(8)
    gs = [Matrix.block2(z8, i8, i8, z8)]
    for g in cl7_basis().gammas:
        gs.append(Matrix.block2(z8, g, -g, z8).scale(-I))
    return GammaBasis(EUCLIDEAN, tuple(gs))


@lru_cache(maxsize=None)
def chiral_transform() -> Matrix:
    """The unitary A = (1/sqrt2) [[I8, -i I8], [-i I8, I8]] of the Cl(1,7) split."""
    i8 = Matrix.identity(8)
    mi8 = i8.scale(-I)
    return Matrix.block2(i8, mi8, mi8, i8).scale(SQRT2 * HALF)


@lru_cache(maxsize=None)
def cl17_basis(chiral: bool = False) -> GammaBasis:
    """A real basis for Cl(1,7), dimension 16, signature (1,7).

    With ``chiral`` set, every gamma is conjugated by the unitary A so that
    all degree-2 elements become block diagonal (the L' + R' split).
    """
    i8 = Matrix.identity(8)
    z8 = Matrix.zero(8)
    gs = [Matrix.block2(i8, z8, z8, -i8)]
    for g in cl7_basis().gammas:
        gs.append(Matrix.block2(z8, g, g, z8).scale(I))
    if chiral:
        a = chiral_transform()
        ad = a.dagger()
        gs = [a @ g @ ad for g in gs]
    return GammaBasis(LORENTZIAN, tuple(gs))


def volume_element(basis: GammaBasis) -> VolumeElement:
    """omega = G_0 G_1 ... G_n in ascending index order, with its report.

    Ordering is fixed ascending; reversing it changes omega only by the
    sign (-1)^(n(n-1)/2).
    """
    omega = basis.gammas[0]
    for g in basis.gammas[1:]:
        omega = omega @ g
    square = omega @ omega
    ident = Matrix.identity(basis.dim)
    return VolumeElement(
        omega=omega,
        squares_to_plus_identity=(square == ident),
        squares_to_minus_identity=(square == -ident),
        anticommutes_with_all=all(anticommutator(omega, g).is_zero
                                  for g in basis.gammas),
    )
