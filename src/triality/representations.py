"""The three 28-generator bases V, L, R in both signatures.

Vector generators are the rotation planes (plus boosts in the Lorentzian
case); spinor generators are the 8x8 blocks of the degree-2 Clifford
elements Gamma_i Gamma_j / 2.  The constructions apply two calibration
conventions throughout: the (1,5) and (2,6) generators are negated in
every basis, and the right-handed Euclidean basis is conjugated by the
reflection P = diag(-1, 1, ..., 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .clifford import EUCLIDEAN, LORENTZIAN, Signature, cl8_basis, cl17_basis
from .errors import SignatureMismatch
from .field import HALF, I, MINUS_ONE, ONE, from_parts
from .linalg import Subspace, structure_constants
from .matrix import Matrix

# The 28 generator indices (i, j), 0 <= i < j <= 7, in lexicographic order.
GEN_INDICES = tuple((i, j) for i in range(8) for j in range(i + 1, 8))

# Generators whose default sign is flipped in every basis.
SIGN_FLIPS = ((1, 5), (2, 6))

# Reflection along the 0th axis; det P = -1, so P is not a rotation.
P_MATRIX = Matrix.diag((MINUS_ONE,) + (ONE,) * 7)

# The Lorentzian spinor correction M = diag(i, 1, ..., 1).
M_MATRIX = Matrix.diag((I,) + (ONE,) * 7)


@dataclass(frozen=True, eq=False)
class LieBasis:
    """An ordered set of 28 generators indexed by (i, j) pairs.

    Instances are interned per (kind, signature), so identity comparison
    and identity-keyed caches are safe.
    """

    kind: str                 # "V" | "L" | "R"
    signature: Signature
    gens: MappingProxyType

    def __getitem__(self, idx) -> Matrix:
        return self.gens[idx]

    def matrices(self):
        """Generators as a tuple in GEN_INDICES order."""
        return tuple(self.gens[idx] for idx in GEN_INDICES)

    def items(self):
        return tuple((idx, self.gens[idx]) for idx in GEN_INDICES)

    def name_of(self, idx) -> str:
        return f"{self.kind}_{{{idx[0]},{idx[1]}}}"

    def structure_constants(self):
        return _cached_structure_constants(self)


@lru_cache(maxsize=None)
def _cached_structure_constants(b: "LieBasis"):
    return structure_constants(b.matrices())


def _make_basis(kind, signature, gens) -> LieBasis:
    ordered = {idx: gens[idx] for idx in GEN_INDICES}
    return LieBasis(kind, signature, MappingProxyType(ordered))


def _apply_flips(gens):
    for idx in SIGN_FLIPS:
        gens[idx] = -gens[idx]
    return gens


@lru_cache(maxsize=None)
def vector_basis(signature: Signature = EUCLIDEAN) -> LieBasis:
    """The vector representation: rotation planes, with the sign flips.

    Euclidean generators have +1 at (i, j) and -1 at (j, i).  In the
    Lorentzian signature the time axis is 0 and the i = 0 generators have
    the (j, 0) entry negated, turning the seven rotations into boosts
    (X^T eta = -eta X with eta = diag(1, -1, ..., -1)); the (1,5) and
    (2,6) negations are inherited unchanged.
    """
    gens = {}
    for (i, j) in GEN_INDICES:
        entries = {(i, j): ONE, (j, i): MINUS_ONE}
        gens[(i, j)] = Matrix.from_entries(8, entries)
    _apply_flips(gens)
    if signature == LORENTZIAN:
        for j in range(1, 8):
            m = gens[(0, j)]
            boost = {(0, j): m[0, j], (j, 0): -m[j, 0]}
            gens[(0, j)] = Matrix.from_entries(8, boost)
    elif signature != EUCLIDEAN:
        raise SignatureMismatch(f"unsupported signature {signature}")
    return _make_basis("V", signature, gens)


@lru_cache(maxsize=None)
def spinor_bases(signature: Signature = EUCLIDEAN):
    """The left- and right-handed spinor bases (L, R) for a signature.

    Euclidean: L_ij and R'_ij are the upper and lower 8x8 blocks of
    Gamma_i Gamma_j / 2 over the real Cl(8,0) ladder; R_ij = P R'_ij P^T;
    then the (1,5) and (2,6) generators of each are negated.

    Lorentzian: the blocks are taken over the chiral Cl(1,7) ladder and
    corrected by L_ij = -M L'_ij M^dagger, R_ij = -M^dagger R'_ij M before
    the same negations.  The result satisfies L_ij^* = R_ij for all (i, j).
    """
    if signature == EUCLIDEAN:
        gammas = cl8_basis()
    elif signature == LORENTZIAN:
        gammas = cl17_basis(chiral=True)
    else:
        raise SignatureMismatch(f"unsupported signature {signature}")
    left, right = {}, {}
    m_dag = M_MATRIX.dagger()
    for (i, j) in GEN_INDICES:
        prod = (gammas[i] @ gammas[j]).scale(HALF)
        if not (prod.block(0, 8, 8).is_zero and prod.block(8, 0, 8).is_zero):
            raise SignatureMismatch(
                f"degree-2 element ({i},{j}) is not block diagonal")
        upper = prod.block(0, 0, 8)
        lower = prod.block(8, 8, 8)
        if signature == EUCLIDEAN:
            left[(i, j)] = upper
            right[(i, j)] = P_MATRIX @ lower @ P_MATRIX.T
        else:
            left[(i, j)] = -(M_MATRIX @ upper @ m_dag)
            right[(i, j)] = -(m_dag @ lower @ M_MATRIX)
    _apply_flips(left)
    _apply_flips(right)
    return (_make_basis("L", signature, left),
            _make_basis("R", signature, right))


def basis(kind: str, signature: Signature = EUCLIDEAN) -> LieBasis:
    """Fetch one of the six bases by kind and signature."""
    if kind == "V":
        return vector_basis(signature)
    if kind == "L":
        return spinor_bases(signature)[0]
    if kind == "R":
        return spinor_bases(signature)[1]
    raise ValueError(f"unknown basis kind {kind!r}")


@dataclass(frozen=True)
class SpanReport:
    equal: bool
    dim_first: int
    dim_second: int
    dim_union: int


def real_flatten(m: Matrix):
    """A matrix as a sparse vector over 2 n^2 real coordinates (real parts
    then imaginary parts).

    Spanning over these coordinates asks for REAL linear combinations; the
    complexified spans of the Lorentzian V and L bases coincide, so the
    meaningful span comparison is the real one.
    """
    flat, n2 = m.vector(), m.n ** 2
    re = {k: from_parts(re=x.coords[:4]) for k, x in flat.items()}
    im = {n2 + k: from_parts(re=x.coords[4:]) for k, x in flat.items()}
    return {k: x for k, x in {**re, **im}.items() if x}


def real_span(mats) -> Subspace:
    """Real span of a family of matrices (see ``real_flatten``)."""
    mats = list(mats)
    return Subspace.from_vectors([real_flatten(m) for m in mats],
                                 2 * mats[0].n * mats[0].n)


@lru_cache(maxsize=None)
def _cached_real_span(b: LieBasis) -> Subspace:
    return real_span(b.matrices())


def same_span(b1: LieBasis, b2: LieBasis) -> SpanReport:
    """Do two bases span the same REAL subspace of flattened matrix space?"""
    s1 = _cached_real_span(b1)
    s2 = _cached_real_span(b2)
    union = Subspace.from_vectors(s1.rows + s2.rows, s1.ambient_dim)
    return SpanReport(equal=(s1 == s2), dim_first=s1.dim,
                      dim_second=s2.dim, dim_union=union.dim)


@dataclass(frozen=True)
class StructureMatchReport:
    equal: bool
    first_mismatch: tuple | None


def same_structure_constants(b1: LieBasis, b2: LieBasis) -> StructureMatchReport:
    """Entrywise comparison of the two structure-constant arrays."""
    f1 = b1.structure_constants()
    f2 = b2.structure_constants()
    if f1 == f2:
        return StructureMatchReport(True, None)
    return StructureMatchReport(False, f1.first_mismatch(f2))
