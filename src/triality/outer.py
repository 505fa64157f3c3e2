"""The outer automorphisms of so(8) and spin(1,7) as explicit operators.

The 28 generators of each basis are grouped into seven quartets; a 4x4
core matrix acts on all seven quartets simultaneously.  H (order 3) and
K (order 2) generate the Euclidean S3; T (order 3) and complex
conjugation generate the Lorentzian S3.  Diagonalizing the order-3
operator splits each basis into a 14-dimensional invariant subalgebra
(a copy of g2) plus two sets of seven generators carrying the conjugate
third roots of unity as eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .clifford import EUCLIDEAN, LORENTZIAN, Signature
from .errors import ClosureExceeded, SignatureMismatch, TrialityError
from .field import (HALF, I, OMEGA, OMEGA_BAR, ONE, SQRT2, SQRT3, SQRT6,
                    ZERO, ExactScalar, rational)
from .matrix import Matrix
from .representations import GEN_INDICES, LieBasis, _make_basis

# The seven quartets: column k of (a, b, c, d) is acted on by the 4x4 cores.
QUARTETS = (
    ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)),
    ((2, 3), (5, 7), (1, 2), (3, 7), (3, 6), (1, 7), (2, 5)),
    ((4, 5), (1, 3), (4, 7), (1, 5), (1, 4), (2, 4), (1, 6)),
    ((6, 7), (4, 6), (5, 6), (2, 6), (2, 7), (3, 5), (3, 4)),
)

_GEN_POS = {idx: n for n, idx in enumerate(GEN_INDICES)}

# Which representation an operator sends each kind to.
_SUCCESSOR = {
    "H": {"V": "L", "L": "R", "R": "V"},
    "T": {"V": "L", "L": "R", "R": "V"},
    "K": {"V": "V", "L": "R", "R": "L"},
    "conj": {"V": "V", "L": "R", "R": "L"},
}


@dataclass(frozen=True)
class OuterOp:
    """A 4x4 core acting on generator quartets, possibly antilinearly."""

    name: str
    core: Matrix
    antilinear: bool
    signature: Signature


@lru_cache(maxsize=None)
def outer_h() -> OuterOp:
    """The Euclidean order-3 triality rotation: V -> L -> R -> V."""
    h = Fraction(1, 2)
    core = Matrix([[x * h for x in row] for row in
                   ((-1, -1, 1, 1), (1, 1, 1, 1), (-1, 1, 1, -1), (-1, 1, -1, 1))])
    return OuterOp("H", core, False, EUCLIDEAN)


@lru_cache(maxsize=None)
def outer_k() -> OuterOp:
    """The Euclidean duality: reflection through the 0th axis, order 2.

    Acting on the spinor bases it exchanges L and R up to the change of
    basis P; on V it acts as conjugation by P.
    """
    return OuterOp("K", Matrix.diag((-1, 1, 1, 1)), False, EUCLIDEAN)


@lru_cache(maxsize=None)
def outer_t() -> OuterOp:
    """The Lorentzian order-3 triality rotation, a symmetric core."""
    rows = (
        (-ONE, I, -I, -I),
        (I, ONE, ONE, ONE),
        (-I, ONE, ONE, -ONE),
        (-I, ONE, -ONE, ONE),
    )
    core = Matrix([[HALF * x for x in row] for row in rows])
    return OuterOp("T", core, False, LORENTZIAN)


@lru_cache(maxsize=None)
def outer_conj() -> OuterOp:
    """Entrywise complex conjugation: the Lorentzian duality L <-> R."""
    return OuterOp("conj", Matrix.identity(4), True, LORENTZIAN)


def outer_op(name: str) -> OuterOp:
    return {"H": outer_h, "K": outer_k, "T": outer_t, "conj": outer_conj}[name]()


def signature_ops(signature: Signature) -> tuple:
    """The (order-3, order-2) operator pair that generates a signature's S3."""
    names = {EUCLIDEAN: ("H", "K"), LORENTZIAN: ("T", "conj")}[signature]
    return tuple(outer_op(name) for name in names)


def quartet_terms(core: Matrix) -> dict:
    """How a 4x4 core recombines the 28 generators, quartet by quartet.

    Maps each new generator index to its ((old index, coefficient), ...)
    terms: the generator at quartet slot t becomes sum_s core[t][s] times
    the old generator at slot s, in each of the seven quartets.  Zero
    coefficients are left out.
    """
    return {new: tuple((old, core[t, s]) for s, old in enumerate(quartet)
                       if not core[t, s].is_zero)
            for quartet in zip(*QUARTETS) for t, new in enumerate(quartet)}


def _combine(b: LieBasis, terms, antilinear=False) -> dict:
    """Each new generator as its terms' combination of the old ones."""
    olds = {idx: m.conj() for idx, m in b.items()} if antilinear else b.gens
    gens = {}
    for new, pairs in terms.items():
        acc = Matrix.zero(8)
        for old, c in pairs:
            acc = acc + olds[old].scale(c)
        gens[new] = acc
    return gens


def _require_signature(op: OuterOp, b: LieBasis):
    if op.signature != b.signature:
        raise SignatureMismatch(
            f"operator {op.name} is {op.signature}, basis is {b.signature}")


def apply_outer(op: OuterOp, b: LieBasis) -> LieBasis:
    """Map a basis through an outer operator by its quartet terms.

    Antilinear operators conjugate the old generators first.  The result
    is tagged with the successor representation kind.
    """
    _require_signature(op, b)
    gens = _combine(b, quartet_terms(op.core), op.antilinear)
    return _make_basis(_SUCCESSOR[op.name][b.kind], b.signature, gens)


@dataclass(frozen=True)
class UnpackedOp:
    """A 28x28 operator on coefficient space (with an antilinear flag).

    ``matrix`` is the matrix of the automorphism in the generator basis:
    within each quartet its block is the TRANSPOSE of the 4x4 core, which
    is what multiplies coefficient vectors when the core maps the
    generators themselves.  For the symmetric cores K and T the transpose
    is invisible; for H it is exactly what makes the eigenvalue labels of
    the graded basis come out right.
    """

    matrix: Matrix
    antilinear: bool

    def apply(self, coeffs):
        vec = [x.conj() for x in coeffs] if self.antilinear else list(coeffs)
        return tuple(
            sum((self.matrix[r, c] * vec[c] for c in range(28)
                 if self.matrix[r, c]._nz), ZERO)
            for r in range(28))


def unpack(op: OuterOp) -> UnpackedOp:
    """Unpack a 4x4 core to the full 28-dimensional coefficient operator."""
    entries = {(_GEN_POS[old], _GEN_POS[new]): c
               for new, pairs in quartet_terms(op.core).items()
               for old, c in pairs}
    return UnpackedOp(Matrix.from_entries(28, entries), op.antilinear)


# -- S3 closure ------------------------------------------------------------

@dataclass(frozen=True)
class S3Closure:
    """Multiplicative closure of a set of (possibly antilinear) cores."""

    elements: tuple          # (matrix, antilinear) pairs, discovery order
    is_s3: bool
    order_counts: dict       # element order -> count
    relation_holds: bool     # k h k^-1 == h^2 for the found generators


def _compose(a, b):
    ma, fa = a
    mb, fb = b
    return ((ma @ mb.conj()) if fa else (ma @ mb), fa ^ fb)


def _op_order(e, ident):
    acc = e
    for n in range(1, 13):
        if acc == ident:
            return n
        acc = _compose(acc, e)
    return None


def s3_closure(ops) -> S3Closure:
    """Close a generator set of outer operators under composition.

    Raises ClosureExceeded past 12 distinct elements, which would signal a
    transcription bug rather than a mathematical possibility.
    """
    gens = [(op.core, op.antilinear) for op in ops]
    ident = (Matrix.identity(4), False)
    elements = [ident]
    frontier = [ident]
    while frontier:
        current = frontier.pop(0)
        for g in gens:
            for nxt in (_compose(current, g), _compose(g, current)):
                if not any(nxt[1] == e[1] and nxt[0] == e[0] for e in elements):
                    elements.append(nxt)
                    frontier.append(nxt)
                    if len(elements) > 12:
                        raise ClosureExceeded(len(elements), elements)
    orders = {}
    for e in elements:
        o = _op_order(e, ident)
        orders[o] = orders.get(o, 0) + 1
    is_s3 = (len(elements) == 6 and orders.get(1) == 1
             and orders.get(2) == 3 and orders.get(3) == 2)
    # braid relation on one order-3 and one order-2 element
    relation = False
    threes = [e for e in elements if _op_order(e, ident) == 3]
    twos = [e for e in elements if _op_order(e, ident) == 2]
    if threes and twos:
        h, k = threes[0], twos[0]
        relation = _compose(_compose(k, h), k) == _compose(h, h)
    return S3Closure(tuple(elements), is_s3, orders, relation)


# -- diagonalization --------------------------------------------------------

@dataclass(frozen=True)
class Diagonalization:
    """Eigenvector matrix and diagonal for an order-3 triality core.

    Columns are, in order: the sqrt2-normalized (0,1,0,1) vector and the
    sqrt6-normalized (0,1,2,-1) vector (both eigenvalue 1, the "lambda3-
    like" and "lambda8-like" directions), then the eigenvalue e^{+i2pi/3}
    column and its conjugate.  The exact relation verified on construction
    is core^T U = U D: the printed vectors diagonalize the action of the
    core on quartet COEFFICIENTS, which is the transposed core.  For the
    symmetric T this is literally T = B D B^dagger with B real orthogonal.
    """

    op_name: str
    change_of_basis: Matrix
    diagonal: Matrix


_INV_SQRT2 = SQRT2 * HALF               # 1/sqrt2
_INV_SQRT6 = SQRT6 * rational(1, 6)     # 1/sqrt6


# The first entry of each complex eigenvector column, per order-3 operator.
_FIRST_ENTRY = {
    "H": I * SQRT3 * _INV_SQRT6,          # i sqrt3 / sqrt6 = i/sqrt2
    "T": -SQRT3 * _INV_SQRT6,             # the i -> 1 replacement, -1/sqrt2
}


@lru_cache(maxsize=None)
def diagonalize(op_name: str) -> Diagonalization:
    """Exact eigenvector matrix for H or T with D = diag(1, 1, w, conj w).

    Raises TrialityError if the columns fail to be unitary or to satisfy
    the similarity, which would mean a transcription error in the core.
    """
    if op_name not in _FIRST_ENTRY:
        raise ValueError(f"no diagonalization for operator {op_name!r}")
    col1 = (ZERO, _INV_SQRT2, ZERO, _INV_SQRT2)
    col2 = (ZERO, _INV_SQRT6, _INV_SQRT6 * 2, -_INV_SQRT6)
    col3 = (_FIRST_ENTRY[op_name], -_INV_SQRT6, _INV_SQRT6, _INV_SQRT6)
    col4 = (-col3[0],) + col3[1:]
    u = Matrix(tuple(zip(col1, col2, col3, col4)))
    d = Matrix.diag((ONE, ONE, OMEGA, OMEGA_BAR))
    if not u.is_unitary:
        raise TrialityError(f"{op_name} eigenvector matrix is not unitary")
    if outer_op(op_name).core.T @ u != u @ d:
        raise TrialityError(
            f"{op_name} eigenvector matrix fails the similarity")
    return Diagonalization(op_name, u, d)


# -- graded basis ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GradedBasis:
    """A basis arranged by triality eigenvalue.

    ``g2_part`` holds the 14 invariant generators (7 lambda3-like then 7
    lambda8-like), ``right_part`` the seven with eigenvalue e^{+i2pi/3},
    ``left_part`` the seven with e^{-i2pi/3}.  ``coeff_vectors`` gives the
    28-dimensional coefficient vector of each generator over the source
    basis, in the same order (g2, right, left).
    """

    provenance: str
    g2_part: tuple
    right_part: tuple
    left_part: tuple
    coeff_vectors: tuple

    def all_generators(self):
        return self.g2_part + self.right_part + self.left_part

    def eigenvalue_of(self, position: int) -> ExactScalar:
        if position < 14:
            return ONE
        return OMEGA if position < 21 else OMEGA_BAR


def graded_basis(b: LieBasis, op: OuterOp) -> GradedBasis:
    """Regroup a basis by triality eigenvalue using the diagonalizer columns.

    The quartet terms of U^T give, in each quartet, the combinations
    sum_s U[s][t] gen_s; column t inherits the eigenvalue D[t][t] under
    the action of the outer operator.
    """
    _require_signature(op, b)
    terms = quartet_terms(diagonalize(op.name).change_of_basis.T)
    gens = _combine(b, terms)
    parts = [tuple(gens[idx] for idx in row) for row in QUARTETS]
    coeffs = []
    for idx in (idx for row in QUARTETS for idx in row):
        vec = [ZERO] * 28
        for old, c in terms[idx]:
            vec[_GEN_POS[old]] = c
        coeffs.append(tuple(vec))
    return GradedBasis(
        provenance=f"{b.kind}{b.signature} graded by {op.name}",
        g2_part=parts[0] + parts[1],
        right_part=parts[2],
        left_part=parts[3],
        coeff_vectors=tuple(coeffs),
    )


# -- Killing form -------------------------------------------------------------

def killing_form(x: Matrix, y: Matrix) -> ExactScalar:
    """kappa(X, Y) = tr(XY)/2, normalized so kappa(V_ij, V_ij) = -1."""
    return HALF * (x @ y).trace()


def killing_trace(gens) -> ExactScalar:
    """Sum of kappa(X, X) over a generator list."""
    total = ZERO
    for g in gens:
        total = total + killing_form(g, g)
    return total
