"""The three 28-generator bases V, L, R in both signatures.

Vector generators are the rotation planes (plus boosts in the Lorentzian
case); spinor generators are the 8x8 blocks of the degree-2 Clifford
elements Gamma_i Gamma_j / 2.  The constructions apply two calibration
conventions throughout: the (1,5) and (2,6) generators are negated in
every basis, and the right-handed Euclidean basis is conjugated by the
reflection P = diag(-1, 1, ..., 1).

``structure_mismatches`` is the one comparison of their structure
constants, behind check 04 and ``same_structure_constants``; it tries
the closure certificate ``linalg.same_structure`` first.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from . import clifford
from ._record import Record
from .clifford import EUCLIDEAN, LORENTZIAN, Signature
from .errors import SignatureMismatch, TrialityError
from .field import HALF, I, MINUS_ONE, ONE
from .linalg import Subspace, same_structure, structure_constants
from .matrix import Matrix, common_size

# The 28 generator indices (i, j), 0 <= i < j <= 7, in lexicographic order.
GEN_INDICES = tuple((i, j) for i in range(8) for j in range(i + 1, 8))

# Generators whose default sign is flipped in every basis.
SIGN_FLIPS = ((1, 5), (2, 6))

# Reflection along the 0th axis; det P = -1, so P is not a rotation.
P_MATRIX = Matrix.diag((MINUS_ONE,) + (ONE,) * 7)

# The Lorentzian spinor correction M = diag(i, 1, ..., 1).
M_MATRIX = Matrix.diag((I,) + (ONE,) * 7)


class LieBasis(Record, eq=False):
    """An ordered set of generators indexed by (i, j) pairs: all 28, or
    the 21 of a ``subalgebras.restrict``.

    Equality is identity (``eq=False``).  ``vector_basis`` and
    ``spinor_bases`` intern their results per signature, so
    ``basis(kind, signature) is basis(kind, signature)`` holds; no cache
    is keyed on a basis.
    """

    __slots__ = ("kind",        # "V" | "L" | "R"
                 "signature",
                 "gens")        # MappingProxyType {(i, j): Matrix}

    def __getitem__(self, idx) -> Matrix:
        return self.gens[idx]

    def matrices(self):
        """Generators as a tuple in the order of ``gens``."""
        return tuple(self.gens.values())

    def items(self):
        return tuple(self.gens.items())

    def span(self) -> Subspace:
        return Subspace.from_matrices(self.matrices())

    def name_of(self, idx) -> str:
        return f"{self.kind}_{{{idx[0]},{idx[1]}}}"


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
        gammas = clifford.cl8_basis()
    elif signature == LORENTZIAN:
        gammas = clifford.cl17_basis(chiral=True)
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


class SpanReport(Record):
    __slots__ = ("equal", "dim_first", "dim_second", "dim_union")


def real_flatten(m: Matrix):
    """A matrix as a sparse vector over 2 n^2 real coordinates (real parts
    then imaginary parts).

    Spanning over these coordinates asks for REAL linear combinations; the
    complexified spans of the Lorentzian V and L bases coincide, so the
    meaningful span comparison is the real one.
    """
    n2, re, im = m.n ** 2, {}, {}
    for k, x in m.vector().items():
        x_re, x_im = x.parts()
        if x_re:
            re[k] = x_re
        if x_im:
            im[n2 + k] = x_im
    return {**re, **im}


def real_span(mats) -> Subspace:
    """Real span of a family of matrices (see ``real_flatten``).  Raises
    ValueError for an empty list and DimensionMismatch for mixed sizes."""
    mats = list(mats)
    return Subspace.from_vectors([real_flatten(m) for m in mats],
                                 2 * common_size(mats) ** 2)


def same_span(b1: LieBasis, b2: LieBasis) -> SpanReport:
    """Do two bases span the same REAL subspace of flattened matrix space?"""
    s1 = real_span(b1.matrices())
    s2 = real_span(b2.matrices())
    union = Subspace.from_vectors(s1.rows + s2.rows, s1.ambient_dim)
    return SpanReport(equal=(s1 == s2), dim_first=s1.dim,
                      dim_second=s2.dim, dim_union=union.dim)


class StructureMatchReport(Record):
    __slots__ = ("equal", "first_mismatch")


def structure_mismatches(bases):
    """For each consecutive pair of ``bases``, the first key (a, b, c)
    where their structure constants differ, or None.  The seed certificate
    (``linalg.same_structure``) comes first; only when it fails are the
    full arrays solved and compared, so that they name any difference and
    raise any LinearlyDependent or NotClosed."""
    first, *rest = (b.matrices() for b in bases)
    try:
        if same_structure(first, rest):
            return (None,) * len(rest)
    except TrialityError:
        pass
    arrays = [structure_constants(gens) for gens in (first, *rest)]
    return tuple(f.first_mismatch(g) for f, g in zip(arrays, arrays[1:]))


def same_structure_constants(b1: LieBasis, b2: LieBasis) -> StructureMatchReport:
    """Entrywise comparison of the two structure-constant arrays."""
    (at,) = structure_mismatches((b1, b2))
    return StructureMatchReport(at is None, at)
