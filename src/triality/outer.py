"""The outer automorphisms of so(8) and spin(1,7) as explicit operators.

The 28 generators of each basis are grouped into seven quartets; a 4x4
core matrix acts on all seven quartets simultaneously.  H (order 3) and
K (order 2) generate the Euclidean S3; T (order 3) and complex
conjugation generate the Lorentzian S3.  Diagonalizing the order-3
operator splits each basis into a 14-dimensional invariant subalgebra
(a copy of g2) plus two sets of seven generators carrying the conjugate
third roots of unity as eigenvalues.  ``apply_outer`` and
``graded_basis`` build all 28 new generators in one
``matrix.combination`` call, which flattens each old generator once for
the four new ones it enters.  ``unpack`` spreads a core over the 28
generator positions as one 28x28 ``Matrix`` that maps coefficient row
vectors, x to x @ M.
"""

from __future__ import annotations

from collections import Counter

from ._record import Record
from .clifford import EUCLIDEAN, LORENTZIAN, Signature
from .errors import ClosureExceeded, SignatureMismatch, TrialityError
from .field import (HALF, I, OMEGA, OMEGA_BAR, ONE, SQRT2, SQRT3, SQRT6,
                    ZERO, ExactScalar, rational)
from .matrix import Matrix, combination, trace_product
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


class OuterOp(Record):
    """A 4x4 core acting on generator quartets, possibly antilinearly."""

    __slots__ = ("name", "core", "antilinear", "signature")


# The entries of the order-3 cores, each a ready one-term scalar: +-1/2
# and +-i/2.  A core is placed from them with ``Matrix._of`` and builds none.
_P, _M, _IP = HALF, -HALF, I * HALF
_IM = -_IP


def _core(rows) -> Matrix:
    """A 4x4 core from dense rows of nonzero scalars."""
    return Matrix._of((dict(enumerate(row)) for row in rows), 4)


def outer_h() -> OuterOp:
    """The Euclidean order-3 triality rotation: V -> L -> R -> V."""
    core = _core(((_M, _M, _P, _P), (_P, _P, _P, _P),
                  (_M, _P, _P, _M), (_M, _P, _M, _P)))
    return OuterOp("H", core, False, EUCLIDEAN)


def outer_k() -> OuterOp:
    """The Euclidean duality: reflection through the 0th axis, order 2.

    Acting on the spinor bases it exchanges L and R up to the change of
    basis P; on V it acts as conjugation by P.
    """
    return OuterOp("K", Matrix.diag((-1, 1, 1, 1)), False, EUCLIDEAN)


def outer_t() -> OuterOp:
    """The Lorentzian order-3 triality rotation, a symmetric core."""
    core = _core(((_M, _IP, _IM, _IM), (_IP, _P, _P, _P),
                  (_IM, _P, _P, _M), (_IM, _P, _M, _P)))
    return OuterOp("T", core, False, LORENTZIAN)


def outer_conj() -> OuterOp:
    """Entrywise complex conjugation: the Lorentzian duality L <-> R."""
    return OuterOp("conj", Matrix.identity(4), True, LORENTZIAN)


def outer_op(name: str) -> OuterOp:
    """The operator H, K, T or conj; ValueError for any other name."""
    builders = {"H": outer_h, "K": outer_k, "T": outer_t, "conj": outer_conj}
    if name not in builders:
        raise ValueError(f"unknown outer operator {name!r}")
    return builders[name]()


def signature_ops(signature: Signature) -> tuple:
    """The (order-3, order-2) operator pair that generates a signature's S3."""
    names = {EUCLIDEAN: ("H", "K"), LORENTZIAN: ("T", "conj")}.get(signature)
    if names is None:
        raise SignatureMismatch(f"unsupported signature {signature}")
    return tuple(outer_op(name) for name in names)


def quartet_terms(core: Matrix) -> dict:
    """How a 4x4 core recombines the 28 generators, quartet by quartet.

    Maps each new generator index to its ((old index, coefficient), ...)
    terms: the generator at quartet slot t becomes sum_s core[t][s] times
    the old generator at slot s, in each of the seven quartets.  Zero
    coefficients are left out, and each core row is sorted into slot
    order once.
    """
    rows = [sorted(row.items()) for row in core.rows]
    return {new: tuple((quartet[s], c) for s, c in rows[t])
            for quartet in zip(*QUARTETS) for t, new in enumerate(quartet)}


def _combine(b: LieBasis, terms, antilinear=False) -> dict:
    """Each new generator as its terms' combination of the old ones, all
    in one ``combination`` call."""
    olds = {idx: m.conj() for idx, m in b.items()} if antilinear else b.gens
    return dict(zip(terms, combination(terms.values(), olds, 8)))


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


def unpack(op: OuterOp) -> Matrix:
    """The 28x28 matrix of an operator on coefficient row vectors.

    Row p holds what a coefficient at generator position p becomes: the
    quartet terms of the generator at p, so each quartet holds the 4x4
    core itself, and a coefficient row vector x maps to x @ M.  The rows
    are the terms' own scalars, so no scalar is built.
    """
    terms = quartet_terms(op.core)
    return Matrix._of(({_GEN_POS[old]: c for old, c in terms[new]}
                       for new in GEN_INDICES), 28)


# -- S3 closure ------------------------------------------------------------

class S3Closure(Record):
    """Multiplicative closure of a set of (possibly antilinear) cores."""

    __slots__ = ("elements",         # (matrix, antilinear) pairs, discovery order
                 "is_s3",
                 "order_counts",     # element order -> count
                 "relation_holds")   # k h k^-1 == h^2 for the found generators


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

    The closure grows breadth first by right multiplication alone: in a
    finite group every element is a product of generators, so the words
    current * g reach all of it.  Raises ClosureExceeded past 12 distinct
    elements, which would signal a transcription bug rather than a
    mathematical possibility.
    """
    gens = [(op.core, op.antilinear) for op in ops]
    ident = (Matrix.identity(4), False)
    elements = [ident]
    frontier = [ident]
    while frontier:
        current = frontier.pop(0)
        for g in gens:
            nxt = _compose(current, g)
            if not any(nxt[1] == e[1] and nxt[0] == e[0] for e in elements):
                elements.append(nxt)
                frontier.append(nxt)
                if len(elements) > 12:
                    raise ClosureExceeded(len(elements), elements)
    orders = [_op_order(e, ident) for e in elements]
    counts = dict(Counter(orders))
    is_s3 = counts == {1: 1, 2: 3, 3: 2}
    # braid relation on the first order-3 and the first order-2 element
    h, k = (next((e for e, o in zip(elements, orders) if o == n), None) for n in (3, 2))
    relation = (h is not None and k is not None
                and _compose(_compose(k, h), k) == _compose(h, h))
    return S3Closure(tuple(elements), is_s3, counts, relation)


# -- diagonalization --------------------------------------------------------

class Diagonalization(Record):
    """Eigenvector matrix and diagonal for an order-3 triality core.

    Columns are, in order: the sqrt2-normalized (0,1,0,1) vector and the
    sqrt6-normalized (0,1,2,-1) vector (both eigenvalue 1, the "lambda3-
    like" and "lambda8-like" directions), then the eigenvalue e^{+i2pi/3}
    column and its conjugate.  The exact relation verified on construction
    is core^T U = U D: the printed vectors diagonalize the action of the
    core on quartet COEFFICIENTS, which is the transposed core.  For the
    symmetric T this is literally T = B D B^dagger with B real orthogonal.
    """

    __slots__ = ("change_of_basis", "diagonal")


# The entries of the eigenvector columns, ready like the cores' entries.
_INV_SQRT2 = SQRT2 * HALF               # 1/sqrt2
_INV_SQRT6 = SQRT6 * rational(1, 6)     # 1/sqrt6
_NEG_INV_SQRT6, _TWO_INV_SQRT6 = -_INV_SQRT6, _INV_SQRT6 * 2
_H_FIRST = I * SQRT3 * _INV_SQRT6       # i sqrt3 / sqrt6 = i/sqrt2
_T_FIRST = -SQRT3 * _INV_SQRT6          # the i -> 1 replacement, -1/sqrt2

# The first entries f and -f of the two complex eigenvector columns, per
# order-3 operator.
_FIRST_ENTRY = {"H": (_H_FIRST, -_H_FIRST), "T": (_T_FIRST, -_T_FIRST)}


def diagonalize(op_name: str) -> Diagonalization:
    """Exact eigenvector matrix for H or T with D = diag(1, 1, w, conj w).

    Raises TrialityError if the columns fail to be unitary or to satisfy
    the similarity, which would mean a transcription error in the core.
    """
    if op_name not in _FIRST_ENTRY:
        raise ValueError(f"no diagonalization for operator {op_name!r}")
    # The columns (0, a, 0, a), (0, b, 2b, -b), (f, -b, b, b) and
    # (-f, -b, b, b), for a = 1/sqrt2 and b = 1/sqrt6, as sparse rows.
    f, g = _FIRST_ENTRY[op_name]
    a, b, m, t = _INV_SQRT2, _INV_SQRT6, _NEG_INV_SQRT6, _TWO_INV_SQRT6
    u = Matrix._of(({2: f, 3: g}, {0: a, 1: b, 2: m, 3: m},
                    {1: t, 2: b, 3: b}, {0: a, 1: m, 2: b, 3: b}), 4)
    d = Matrix._of(({0: ONE}, {1: ONE}, {2: OMEGA}, {3: OMEGA_BAR}), 4)
    if not u.is_unitary:
        raise TrialityError(f"{op_name} eigenvector matrix is not unitary")
    if outer_op(op_name).core.T @ u != u @ d:
        raise TrialityError(
            f"{op_name} eigenvector matrix fails the similarity")
    return Diagonalization(u, d)


# -- graded basis ------------------------------------------------------------

class GradedBasis(Record, eq=False):
    """A basis arranged by triality eigenvalue.

    ``g2_part`` holds the 14 invariant generators (7 lambda3-like then 7
    lambda8-like), ``right_part`` the seven with eigenvalue e^{+i2pi/3},
    ``left_part`` the seven with e^{-i2pi/3}.  ``coeff_vectors`` gives the
    coefficients of each generator over the source basis, in the same order
    (g2, right, left), as a sparse ``{generator position: nonzero
    coefficient}`` dict.
    """

    __slots__ = ("provenance", "g2_part", "right_part", "left_part",
                 "coeff_vectors")

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
    return GradedBasis(
        provenance=f"{b.kind}{b.signature} graded by {op.name}",
        g2_part=parts[0] + parts[1],
        right_part=parts[2],
        left_part=parts[3],
        coeff_vectors=tuple({_GEN_POS[old]: c for old, c in terms[idx]}
                            for row in QUARTETS for idx in row),
    )


# -- Killing form -------------------------------------------------------------

def killing_form(x: Matrix, y: Matrix) -> ExactScalar:
    """kappa(X, Y) = tr(XY)/2, normalized so kappa(V_ij, V_ij) = -1."""
    return HALF * trace_product(x, y)


def killing_trace(gens) -> ExactScalar:
    """Sum of kappa(X, X) over a generator list."""
    total = ZERO
    for g in gens:
        total = total + killing_form(g, g)
    return total
