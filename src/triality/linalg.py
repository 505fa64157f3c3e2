"""Exact row reduction, kernels, subspaces, and structure constants.

Vectors and rows are sparse dicts {column: nonzero ExactScalar}, the
layout of ``Matrix`` rows, and every row update v +- c * w goes through
the in-place row kernel ``matrix.add_scaled``, read from its module at
call time.
The RREF of a row space over Q(i, sqrt2, sqrt3) is unique, so its rows,
pivots and constraint presentations do not depend on the order of
elimination.

This module is the only place that eliminates, and ``_insert`` is its one
step: it reduces a vector against echelon rows and scales what is left
to 1 at its lowest index.  ``rref``, ``det``, ``CoordSolver`` and the
orbit of ``same_structure`` all grow one echelon through it, and
``stacked_solve`` solves sum a_i x_i = sum b_j y_j through ``rref``.
``same_structure`` is the one closure proof: it picks its own seeds,
walks only the brackets that hold one, and proves from them that a list
closes (``is_closed`` catches its ``NotClosed``) and that other lists
share its structure constants.  ``structure_constants`` walks every
bracket, and ``first_mismatch`` is the one comparison of two of its
arrays; callers run them only after a certificate fails, to name where.
"""

from __future__ import annotations

from . import matrix
from ._record import Record
from .errors import DimensionMismatch, LinearlyDependent, NotClosed
from .field import MINUS_ONE, ONE, ZERO, ExactScalar, scalar
from .matrix import Matrix, common_size, commutator, is_combination


def _exact(vector) -> dict:
    """A sparse vector coerced into the field, without zero entries."""
    return {k: s for k, x in vector.items() if (s := scalar(x))}


def _flatten(m: Matrix, ambient_dim: int) -> dict:
    """``m.vector()``, if n^2 is ``ambient_dim`` for the n x n m."""
    if m.n ** 2 != ambient_dim:
        raise DimensionMismatch(f"{m.n}x{m.n} in ambient {ambient_dim}")
    return m.vector()


def _eliminate(v: dict, rows, pivots):
    """Reduce the sparse vector ``v`` in place against ``rows``, each 1 at
    its pivot and zero at the pivots before it, so that ``v`` ends empty
    exactly in their span.  Each update is one call of the kernel
    ``matrix.add_scaled``, read from its module once per call."""
    add_scaled = matrix.add_scaled
    for row, p in zip(rows, pivots):
        if p in v:
            add_scaled(v, v[p], row, -1)


def _insert(rows, pivots, v: dict):
    """Reduce ``v`` against the echelon ``rows``; if anything is left,
    scale it to 1 at its lowest index, append it and its pivot, and
    return the entry scaled away, else None."""
    _eliminate(v, rows, pivots)
    if not v:
        return None
    p = min(v)
    head = v[p]
    if head != ONE:
        inv = head.inverse()
        v = {k: x * inv for k, x in v.items()}
    rows.append(v)
    pivots.append(p)
    return head


def rref(rows):
    """Reduced row echelon form of a list of sparse rows.

    Row values are coerced with ``scalar`` and zeros dropped.  Returns
    (rref_rows, pivot_columns) with zero rows dropped; both are unique
    to the row space, whatever the order of the rows.
    """
    red, pivots = [], []
    for row in rows:
        _insert(red, pivots, _exact(row))
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    red, pivots = [red[k] for k in order], [pivots[k] for k in order]
    for k in reversed(range(len(red))):  # back-substitute, highest pivot first
        p = pivots[k]
        for row in red[:k]:  # only the rows above a pivot hold its column
            if p in row:
                matrix.add_scaled(row, row[p], red[k], -1)
    return tuple(red), tuple(pivots)


def _free_expansion(red, pivots, ncols: int):
    """One kernel vector per free column of an RREF: 1 there, and minus
    that column's entry of each pivot row at the row's pivot."""
    return [{f: ONE, **{p: -row[f] for row, p in zip(red, pivots) if f in row}}
            for f in range(ncols) if f not in pivots]


def kernel_basis(rows, ncols: int):
    """Exact basis of the right kernel of the system ``rows`` x = 0.

    The basis is itself returned in reduced row echelon form, so the
    presentation of a kernel is canonical.
    """
    return rref(_free_expansion(*rref(rows), ncols))[0]


def stacked_solve(a_vecs, b_vecs):
    """Solve sum_i x_i a_i = sum_j y_j b_j exactly.

    The unknowns are (x, y), with the vectors in the order given, so the
    caller's order decides the pivots.  Returns ``(rref_rows, pivots,
    common)``, where ``common`` lists sum_j y_j b_j over the kernel vector
    of each free column.
    """
    negated = [{e: -x for e, x in v.items()} for v in b_vecs]
    system = {}
    for j, v in enumerate([*a_vecs, *negated]):
        for e, x in v.items():
            system.setdefault(e, {})[j] = x
    red, pivots = rref([system[e] for e in sorted(system)])
    p = len(a_vecs)
    common = []
    for kv in _free_expansion(red, pivots, p + len(b_vecs)):
        v = {}
        for j, y in kv.items():
            if j >= p:
                matrix.add_scaled(v, y, b_vecs[j - p])
        common.append(v)
    return red, pivots, common


def det(m: Matrix) -> ExactScalar:
    """Exact determinant: the product of the entries ``_insert`` scales
    away from the rows in turn, times the sign of the pivot order."""
    rows, pivots = [], []
    out = ONE
    for row in m.rows:
        head = _insert(rows, pivots, dict(row))
        if head is None:
            return ZERO
        out = out * head
    inversions = sum(p > q for k, p in enumerate(pivots) for q in pivots[k + 1:])
    return -out if inversions % 2 else out


class Subspace(Record):
    """A subspace of coordinate space held in exact reduced row echelon form.

    ``rows`` are sparse, so elimination touches only their nonzero entries.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int) -> "Subspace":
        vectors = list(vectors)
        if any(k not in range(ambient_dim) for v in vectors for k in v):
            raise ValueError("vector index outside ambient_dim")
        return cls(ambient_dim, *rref(vectors))

    @classmethod
    def from_matrices(cls, mats) -> "Subspace":
        """Span of matrices, flattened row-major."""
        mats = list(mats)
        return cls.from_vectors([m.vector() for m in mats],
                                common_size(mats) ** 2)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_matrix(self, m: Matrix) -> bool:
        v = _flatten(m, self.ambient_dim)
        _eliminate(v, self.rows, self.pivots)
        return not v

    def __hash__(self):
        # the rows are dicts, which the record hash of all fields cannot take
        return hash((self.ambient_dim, self.pivots))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Exact intersection of two spans via the stacked-kernel method."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        common = stacked_solve(self.rows, other.rows)[2]
        return Subspace(self.ambient_dim, *rref(common))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class CoordSolver(Record, eq=False):
    """Expands matrices in a fixed list of linearly independent generators.

    Generator i goes in as its flattened matrix with -1 at column n2 + i,
    so a pivot at or past n2 marks a dependent list.  A solve eliminates
    the flattened target; if nothing below n2 is left, the rest is its
    sparse coefficients, where an absent generator has coefficient zero.
    """

    __slots__ = ("n2", "rows", "pivots")

    def __init__(self, gens):
        gens = list(gens)
        n2 = common_size(gens) ** 2
        rows, pivots = [], []
        for i, g in enumerate(gens):
            _insert(rows, pivots, {**g.vector(), n2 + i: MINUS_ONE})
        independent = sum(p < n2 for p in pivots)
        if independent < len(gens):
            raise LinearlyDependent(f"only {independent} of {len(gens)} "
                                    "generators independent")
        super().__init__(n2, tuple(rows), tuple(pivots))

    def solve(self, m: Matrix):
        """The sparse coefficients ``{i: c_i}`` with sum c_i gen_i = m, or
        None if m is outside the span.  Raises DimensionMismatch for an m
        of another size than the generators."""
        v = _flatten(m, self.n2)
        _eliminate(v, self.rows, self.pivots)
        if min(v, default=self.n2) < self.n2:
            return None
        return {k - self.n2: x for k, x in v.items()}


class StructureConstants(Record):
    """The array f with [X_a, X_b] = sum_c f_ab^c X_c, stored sparsely:
    ``entries`` maps (a, b, c) with a < b to a nonzero f_ab^c.  The other
    half is derived, f_ba^c = -f_ab^c, and never stored."""

    __slots__ = ("size", "entries")

    def __getitem__(self, abc):
        a, b, c = abc
        return -self[b, a, c] if a > b else self.entries.get(abc, ZERO)

    def __hash__(self):
        # the record hash of all fields cannot take the entries dict
        return hash((self.size, tuple(sorted(self.entries.items()))))

    def first_mismatch(self, other: "StructureConstants"):
        """The first stored key (a, b, c) where the two arrays differ, or
        None exactly when they are equal.  Raises ValueError for arrays of
        different sizes."""
        if self.size != other.size:
            raise ValueError(f"sizes {self.size} and {other.size} differ")
        mine, theirs = self.entries, other.entries
        return next((key for key in sorted(mine.keys() | theirs.keys())
                     if mine.get(key) != theirs.get(key)), None)


def structure_constants(gens) -> StructureConstants:
    """Solve every bracket [X_a, X_b], a < b, of the generator list exactly.

    Raises ValueError for an empty list, LinearlyDependent for a
    degenerate one and NotClosed(a, b, residual) as soon as one bracket
    leaves the span.
    """
    gens = list(gens)
    solver = CoordSolver(gens)
    entries = {}
    for a, x in enumerate(gens):
        for b in range(a + 1, len(gens)):
            bracket = commutator(x, gens[b])
            terms = solver.solve(bracket)
            if terms is None:
                raise NotClosed(a, b, bracket)
            entries.update(((a, b, c), val) for c, val in terms.items())
    return StructureConstants(len(gens), entries)


def is_closed(gens) -> bool:
    """True when every pairwise bracket stays inside the span: the
    certificate of ``same_structure``, with its NotClosed caught."""
    try:
        return same_structure(gens)
    except NotClosed:
        return False


def _ad(coeffs, s: int, v: dict) -> dict:
    """ad X_s of the coefficient vector ``v``, where ``coeffs[a, b]`` are
    the coefficients of [X_a, X_b], a < b, for every pair holding s; a
    bracket that vanishes adds nothing and is skipped."""
    out = {}
    for b, x in v.items():
        if b > s and (terms := coeffs[s, b]):
            matrix.add_scaled(out, x, terms)
        elif b < s and (terms := coeffs[b, s]):
            matrix.add_scaled(out, x, terms, -1)
    return out


def _seed_brackets(gens, solver) -> dict:
    """The solved brackets ``{(a, b): terms}``, a < b, of the pairs that
    hold a seed, picked as ``same_structure`` says; raises NotClosed(a, b,
    residual) for the first walked bracket that leaves the span."""
    n = len(gens)
    coeffs, seeds, rows, pivots = {}, [], [], []
    candidates = iter(range(n))  # a position once inside stays inside
    while len(rows) < n:
        for s in candidates:
            e = {s: ONE}
            _eliminate(e, rows, pivots)
            if e:
                break
        for y in range(n):
            a, b = min(s, y), max(s, y)
            if a != b and (a, b) not in coeffs:
                bracket = commutator(gens[a], gens[b])
                coeffs[a, b] = solver.solve(bracket)
                if coeffs[a, b] is None:
                    raise NotClosed(a, b, bracket)
        seeds.append(s)
        todo = [e, *(_ad(coeffs, s, row) for row in rows)]
        for v in todo:  # breadth first: ``todo`` grows as the loop runs
            if _insert(rows, pivots, v) is None:
                continue
            if len(rows) == n:
                break
            todo += [_ad(coeffs, t, rows[-1]) for t in seeds]
    return coeffs


def same_structure(gens, images=()) -> bool:
    """True when ``gens`` close and each list in ``images`` has exactly
    their structure constants, proved from the pairs that hold a seed.

    The next seed is the lowest position outside the ad-orbit, the least
    subspace of coefficient space holding each seed and invariant under
    each seed's ad, grown by ``_eliminate``, until it is all of it.  Each
    seed's brackets [X_s, X_y] are solved in W = span X, and each image
    bracket [Y_a, Y_b] over the same pairs must be the combination of the
    solved coefficients over the images, each list independent: one
    ``is_combination`` call per image list, which flattens the list once
    and cancels each term from the bracket's entry vector.  The
    Jacobi identity proves the rest:
    - the idealizer {x in W : [x, W] in W} is a subalgebra holding the
      seeds, so it holds the orbit, which is W: W is closed;
    - for the linear map phi: X_a -> Y_a, the set {x in W : phi[x, y] =
      [phi x, phi y] for every y in W} is a subalgebra holding the seeds,
      so it is W, and every bracket of the images has X's coefficients.
    So closure is decided exactly: if W is not closed, a walked bracket
    leaves it, raising NotClosed(a, b, residual), not always the first of
    ``structure_constants``.  False proves no difference: the full arrays
    find one.  Raises like ``CoordSolver`` for ``gens`` (empty, mixed
    sizes, LinearlyDependent), and ValueError for an image list of
    another length."""
    gens = list(gens)
    images = [list(img) for img in images]
    if any(len(img) != len(gens) for img in images):
        raise ValueError(f"image lists of lengths {[len(i) for i in images]} "
                         f"for {len(gens)} generators")
    solver = CoordSolver(gens)
    try:
        for img in images:
            CoordSolver(img)
    except LinearlyDependent:
        return False
    coeffs = _seed_brackets(gens, solver)
    return all(is_combination(((commutator(img[a], img[b]), terms.items())
                               for (a, b), terms in coeffs.items()), img)
               for img in images)
