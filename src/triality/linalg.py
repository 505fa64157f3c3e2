"""Exact row reduction, kernels, subspaces, and structure constants.

The workhorse is a deterministic RREF over Q(i, sqrt2, sqrt3): pivots are
chosen as the leftmost nonzero column and the first nonzero row in index
order (magnitude-based pivoting is meaningless in exact arithmetic), so
constraint presentations are reproducible run to run.

This module is the only place that eliminates: ``stacked_solve`` solves
sum a_i x_i = sum b_j y_j for every intersection, and
``Subspace.eliminate`` is the one reducer, also behind ``CoordSolver``.
"""

from __future__ import annotations

from .errors import LinearlyDependent, NotClosed
from .field import ONE, ZERO, ExactScalar, scalar
from .matrix import Matrix, commutator


def rref(rows, pivot_cols_limit=None):
    """Reduced row echelon form of a list of scalar rows.

    Returns (rref_rows, pivot_columns) with zero rows dropped.  If
    ``pivot_cols_limit`` is given, pivots are only searched among the first
    that many columns (used for augmented systems).
    """
    m = [list(scalar(x) for x in row) for row in rows]
    nrows = len(m)
    if nrows == 0:
        return (), ()
    width = len(m[0])
    limit = width if pivot_cols_limit is None else pivot_cols_limit
    pivots = []
    r = 0
    for c in range(limit):
        pr = None
        for i in range(r, nrows):
            if m[i][c]._nz:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        head = m[r][c]
        if head != ONE:
            inv = head.inverse()
            m[r] = [x * inv if x._nz else x for x in m[r]]
        row_r = m[r]
        for i in range(nrows):
            if i != r and m[i][c]._nz:
                f = m[i][c]
                m[i] = [xi - f * xr if xr._nz else xi
                        for xi, xr in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def _free_expansion(red, pivots, ncols: int):
    """One kernel vector per free column of an RREF: 1 there, and minus
    that column's entry of each pivot row at the row's pivot."""
    vecs = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(red, pivots):
            if row[f]._nz:
                v[p] = -row[f]
        vecs.append(v)
    return vecs


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
    common)``, where ``common`` is the Subspace spanned by sum_j y_j b_j
    over the kernel vector of each free column.
    """
    dim = len(a_vecs[0] if a_vecs else b_vecs[0])
    system = [tuple(a[e] for a in a_vecs) + tuple(-b[e] for b in b_vecs)
              for e in range(dim)]
    red, pivots = rref(system)
    p = len(a_vecs)
    vecs = []
    for kv in _free_expansion(red, pivots, p + len(b_vecs)):
        v = [ZERO] * dim
        for y, b in zip(kv[p:], b_vecs):
            if y._nz:
                v = [xi + y * xr if xr._nz else xi for xi, xr in zip(v, b)]
        vecs.append(v)
    return red, pivots, Subspace.from_vectors(vecs, dim)


def det(m: Matrix) -> ExactScalar:
    """Exact determinant by Gaussian elimination with swap-sign tracking."""
    n = m.n
    a = [list(row) for row in m.rows]
    sign = ONE
    out = ONE
    for c in range(n):
        pr = None
        for i in range(c, n):
            if a[i][c]._nz:
                pr = i
                break
        if pr is None:
            return ZERO
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        head = a[c][c]
        out = out * head
        inv = head.inverse()
        for i in range(c + 1, n):
            if a[i][c]._nz:
                f = a[i][c] * inv
                a[i] = [xi - f * xr if xr._nz else xi
                        for xi, xr in zip(a[i], a[c])]
    return out * sign


class Subspace:
    """A subspace of coordinate space held in exact reduced row echelon form.

    Each row's support (its nonzero columns) is found once, here, so that
    elimination touches only those entries.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_supports")

    def __init__(self, ambient_dim, rows, pivots):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_supports", tuple(
            tuple(i for i, x in enumerate(row) if x._nz) for row in rows))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int) -> "Subspace":
        vectors = [tuple(scalar(x) for x in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient_dim")
        rows, pivots = rref(vectors)
        return cls(ambient_dim, rows, pivots)

    @classmethod
    def from_matrices(cls, mats) -> "Subspace":
        """Span of matrices, flattened row-major."""
        mats = list(mats)
        n2 = mats[0].n * mats[0].n
        return cls.from_vectors([tuple(m.flat()) for m in mats], n2)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def eliminate(self, v):
        """Reduce the list ``v`` in place against the basis rows; return
        the (row index, multiplier) pairs of the rows it used."""
        used = []
        for k, (row, p, support) in enumerate(
                zip(self.rows, self.pivots, self._supports)):
            c = v[p]
            if c._nz:
                for i in support:
                    v[i] = v[i] - c * row[i]
                used.append((k, c))
        return used

    def reduce(self, vector):
        """Residual of ``vector`` after elimination against the basis rows."""
        v = [scalar(x) for x in vector]
        self.eliminate(v)
        return tuple(v)

    def contains(self, vector) -> bool:
        return all(not x._nz for x in self.reduce(vector))

    def contains_matrix(self, m: Matrix) -> bool:
        return self.contains(tuple(m.flat()))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Exact intersection of two spans via the stacked-kernel method."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if not self.rows or not other.rows:
            return Subspace(self.ambient_dim, (), ())
        return stacked_solve(self.rows, other.rows)[2]

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class CoordSolver:
    """Expands matrices in a fixed list of linearly independent generators.

    Built once per basis from an identity-augmented RREF: ``span`` holds
    the generator half of its rows, and ``_terms`` the nonzero
    (generator, coefficient) pairs of each row's identity half.  A solve
    eliminates the flattened target along ``span`` and adds up the terms
    of the rows it used.
    """

    __slots__ = ("span", "_terms")

    def __init__(self, gens):
        gens = list(gens)
        k = len(gens)
        n2 = gens[0].n * gens[0].n
        aug = [tuple(g.flat()) + tuple(ONE if j == i else ZERO for j in range(k))
               for i, g in enumerate(gens)]
        red, pivots = rref(aug, pivot_cols_limit=n2)
        if len(red) != k:
            raise LinearlyDependent(f"only {len(red)} of {k} generators independent")
        object.__setattr__(self, "span",
                           Subspace(n2, tuple(row[:n2] for row in red), pivots))
        object.__setattr__(self, "_terms", tuple(
            tuple((i, x) for i, x in enumerate(row[n2:]) if x._nz) for row in red))

    def __setattr__(self, name, value):
        raise AttributeError("CoordSolver is immutable")

    def solve(self, m: Matrix):
        """Coefficients c with sum c_i gen_i = m, or None if m is outside."""
        v = list(m.flat())
        coeffs = [ZERO] * len(self._terms)
        for r, c in self.span.eliminate(v):
            for i, x in self._terms[r]:
                coeffs[i] = coeffs[i] + c * x
        if any(x._nz for x in v):
            return None
        return tuple(coeffs)


class StructureConstants:
    """The array f with [X_a, X_b] = sum_c f_ab^c X_c, stored sparsely."""

    __slots__ = ("size", "entries")

    def __init__(self, size: int, entries):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("StructureConstants is immutable")

    def __getitem__(self, abc):
        return self.entries.get(abc, ZERO)

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __hash__(self):
        return hash((self.size, tuple(sorted(self.entries.items()))))

    def first_mismatch(self, other: "StructureConstants"):
        """First (a, b, c) where the two arrays differ, or None."""
        keys = sorted(set(self.entries) | set(other.entries))
        for key in keys:
            if self[key] != other[key]:
                return key
        return None


def structure_constants(gens) -> StructureConstants:
    """Solve every bracket of the generator list exactly.

    Raises LinearlyDependent for a degenerate list and NotClosed(a, b,
    residual) as soon as one commutator leaves the span.
    """
    gens = list(gens)
    solver = CoordSolver(gens)
    entries = {}
    k = len(gens)
    for a in range(k):
        for b in range(a + 1, k):
            bracket = commutator(gens[a], gens[b])
            coeffs = solver.solve(bracket)
            if coeffs is None:
                raise NotClosed(a, b, bracket)
            for c, val in enumerate(coeffs):
                if val._nz:
                    entries[(a, b, c)] = val
                    entries[(b, a, c)] = -val
    return StructureConstants(k, entries)


def is_closed(gens) -> bool:
    """True when every pairwise bracket stays inside the span."""
    try:
        structure_constants(gens)
        return True
    except NotClosed:
        return False
