"""Exact row reduction, kernels, subspaces, and structure constants.

Vectors and rows are sparse dicts {column: nonzero ExactScalar}, the
layout of ``Matrix`` rows, and every row update v +- c * w goes through
the in-place row kernel ``matrix.add_scaled`` / ``matrix.sub_scaled``.
The workhorse is a deterministic RREF over Q(i, sqrt2, sqrt3): pivots
are chosen as the leftmost nonzero column and the first nonzero row in
index order (magnitude-based pivoting is meaningless in exact
arithmetic), so constraint presentations are reproducible run to run.

This module is the only place that eliminates: ``stacked_solve`` solves
sum a_i x_i = sum b_j y_j through ``rref`` for every intersection, and
``_eliminate`` reduces one vector against echelon rows for ``Subspace``,
``CoordSolver`` and the orbit of ``same_structure``.
``same_structure`` is the one closure proof: it picks its own seeds,
walks only the brackets that hold one, and proves from them that a list
closes (``is_closed`` catches its ``NotClosed``) and that other lists
share its structure constants.  ``structure_constants`` walks every
bracket, and ``first_mismatch`` is the one comparison of two of its
arrays; callers run them only after a certificate fails, to name where.
"""

from __future__ import annotations

from ._record import Record
from .errors import DimensionMismatch, LinearlyDependent, NotClosed
from .field import ONE, ZERO, ExactScalar, scalar
from .matrix import (Matrix, add_scaled, common_size, commutator,
                     is_combination, sub_scaled)


def _exact(vector) -> dict:
    """A sparse vector coerced into the field, without zero entries."""
    return {k: s for k, x in vector.items() if (s := scalar(x))}


def rref(rows):
    """Reduced row echelon form of a list of sparse rows.

    Row values are coerced with ``scalar`` and zeros dropped.  Returns
    (rref_rows, pivot_columns) with zero rows dropped.
    """
    m = [_exact(row) for row in rows]
    pivots = []
    r = 0
    for c in sorted(set().union(*m)):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if c in m[i]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        head = m[r][c]
        if head != ONE:
            inv = head.inverse()
            m[r] = {k: x * inv for k, x in m[r].items()}
        for i, row in enumerate(m):
            if i != r and c in row:
                sub_scaled(row, row[c], m[r])
        pivots.append(c)
        r += 1
    return tuple(m[:r]), tuple(pivots)


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
                add_scaled(v, y, b_vecs[j - p])
        common.append(v)
    return red, pivots, common


def det(m: Matrix) -> ExactScalar:
    """Exact determinant by Gaussian elimination with swap-sign tracking,
    which is why it keeps a loop of its own in place of ``_eliminate``."""
    a = [dict(row) for row in m.rows]
    out = ONE
    for c in range(m.n):
        pr = next((i for i in range(c, m.n) if c in a[i]), None)
        if pr is None:
            return ZERO
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            out = -out
        out = out * a[c][c]
        inv = a[c][c].inverse()
        for row in a[c + 1:]:
            if c in row:
                sub_scaled(row, row[c] * inv, a[c])
    return out


def _eliminate(v: dict, rows, pivots):
    """Reduce the sparse vector ``v`` in place against ``rows``, each 1 at
    its pivot and zero at the pivots before it, so that ``v`` ends empty
    exactly in their span; return the (row index, multiplier) pairs used."""
    used = []
    for k, (row, p) in enumerate(zip(rows, pivots)):
        if p in v:
            c = v[p]
            sub_scaled(v, c, row)
            used.append((k, c))
    return used


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

    def _flatten(self, m: Matrix) -> dict:
        """``m.vector()``, if n^2 is the ambient dimension of n x n m."""
        if m.n ** 2 != self.ambient_dim:
            raise DimensionMismatch(f"{m.n}x{m.n} in ambient {self.ambient_dim}")
        return m.vector()

    def contains_matrix(self, m: Matrix) -> bool:
        v = self._flatten(m)
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

    Built once per basis from an identity-augmented RREF: ``span`` holds
    the generator half of its rows, and ``_terms`` each row's identity
    half as a ``{generator: coefficient}`` dict; a pivot in that half
    marks a dependent list.  A solve eliminates the flattened target along
    ``span`` and, if nothing is left, adds up the terms of the rows it used
    with ``add_scaled``: coefficients are sparse too, so an absent
    generator has coefficient zero.
    """

    __slots__ = ("span", "_terms")

    def __init__(self, gens):
        gens = list(gens)
        n2 = common_size(gens) ** 2
        red, pivots = rref([{**g.vector(), n2 + i: ONE} for i, g in enumerate(gens)])
        if pivots[-1] >= n2:
            raise LinearlyDependent(f"only {sum(p < n2 for p in pivots)} of "
                                    f"{len(gens)} generators independent")
        super().__init__(
            Subspace(n2, tuple({j: x for j, x in row.items() if j < n2}
                               for row in red), pivots),
            tuple({j - n2: x for j, x in row.items() if j >= n2} for row in red))

    def solve(self, m: Matrix):
        """The sparse coefficients ``{i: c_i}`` with sum c_i gen_i = m, or
        None if m is outside the span.  Raises DimensionMismatch for an m
        of another size than the generators."""
        v = self.span._flatten(m)
        used = _eliminate(v, self.span.rows, self.span.pivots)
        if v:
            return None
        coeffs = {}
        for r, c in used:
            add_scaled(coeffs, c, self._terms[r])
        return coeffs


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
    the coefficients of [X_a, X_b], a < b, for every pair holding s."""
    out = {}
    for b, x in v.items():
        if b > s:
            add_scaled(out, x, coeffs[s, b])
        elif b < s:
            sub_scaled(out, x, coeffs[b, s])
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
            _eliminate(v, rows, pivots)
            if not v:
                continue
            p = min(v)
            if v[p] != ONE:
                inv = v[p].inverse()
                v = {k: x * inv for k, x in v.items()}
            rows.append(v)
            pivots.append(p)
            if len(rows) == n:
                break
            todo += [_ad(coeffs, t, v) for t in seeds]
    return coeffs


def same_structure(gens, images=()) -> bool:
    """True when ``gens`` close and each list in ``images`` has exactly
    their structure constants, proved from the pairs that hold a seed.

    The next seed is the lowest position outside the ad-orbit, the least
    subspace of coefficient space holding each seed and invariant under
    each seed's ad, grown by ``_eliminate``, until it is all of it.  Each
    seed's brackets [X_s, X_y] are solved in W = span X, and each image
    bracket [Y_a, Y_b] over the same pairs must be the combination of the
    solved coefficients over the images, each list independent.  The
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
    return all(is_combination(commutator(img[a], img[b]),
                              ((val, img[c]) for c, val in terms.items()))
               for img in images for (a, b), terms in coeffs.items())
