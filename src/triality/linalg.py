"""Exact row reduction, kernels, subspaces, and structure constants.

The workhorse is a deterministic RREF over Q(i, sqrt2, sqrt3): pivots are
chosen as the leftmost nonzero column and the first nonzero row in index
order (magnitude-based pivoting is meaningless in exact arithmetic), so
constraint presentations are reproducible run to run.
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


def kernel_basis(rows, ncols: int):
    """Exact basis of the right kernel of the system ``rows`` x = 0.

    The basis is itself returned in reduced row echelon form, so the
    presentation of a kernel is canonical.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vecs = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(red, pivots):
            if row[f]._nz:
                v[p] = -row[f]
        vecs.append(v)
    if not vecs:
        return ()
    canon, _ = rref(vecs)
    return canon


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

    ``constraint_form``, when present, lists the solved linear relations
    among named coefficients produced by an intersection computation.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "constraint_form")

    def __init__(self, ambient_dim, rows, pivots, constraint_form=None):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "constraint_form", constraint_form)

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

    def reduce(self, vector):
        """Residual of ``vector`` after elimination against the basis rows."""
        v = [scalar(x) for x in vector]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c._nz:
                v = [xi - c * xr if xr._nz else xi for xi, xr in zip(v, row)]
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
        p, q = self.dim, other.dim
        if p == 0 or q == 0:
            return Subspace(self.ambient_dim, (), ())
        # columns: coefficients on self.rows then on other.rows
        stacked = [tuple(self.rows[a][c] for a in range(p))
                   + tuple(-other.rows[b][c] for b in range(q))
                   for c in range(self.ambient_dim)]
        ker = kernel_basis(stacked, p + q)
        vecs = []
        for kv in ker:
            v = [ZERO] * self.ambient_dim
            for a in range(p):
                if kv[a]._nz:
                    v = [xi + kv[a] * xr if xr._nz else xi
                         for xi, xr in zip(v, self.rows[a])]
            vecs.append(v)
        return Subspace.from_vectors(vecs, self.ambient_dim)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def rref_kernel(rows, ncols=None) -> Subspace:
    """Kernel of a rows x cols scalar array as a Subspace (exact)."""
    rows = [tuple(scalar(x) for x in row) for row in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    vecs = kernel_basis(rows, ncols)
    return Subspace.from_vectors(vecs, ncols) if vecs else Subspace(ncols, (), ())


class CoordSolver:
    """Expands matrices in a fixed list of linearly independent generators.

    Built once per basis from an identity-augmented RREF; each solve is a
    sparse reduction of the flattened target against the pivot rows.
    """

    __slots__ = ("k", "n2", "_rows")

    def __init__(self, gens):
        gens = list(gens)
        k = len(gens)
        n2 = gens[0].n * gens[0].n
        aug = []
        for idx, g in enumerate(gens):
            row = list(g.flat()) + [ZERO] * k
            row[n2 + idx] = ONE
            aug.append(row)
        red, pivots = rref(aug, pivot_cols_limit=n2)
        if len(red) != k:
            raise LinearlyDependent(f"only {len(red)} of {k} generators independent")
        rows = []
        for row, p in zip(red, pivots):
            vec = row[:n2]
            coeff = row[n2:]
            rows.append((p,
                         vec,
                         tuple(i for i, x in enumerate(vec) if x._nz),
                         coeff,
                         tuple(i for i, x in enumerate(coeff) if x._nz)))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "_rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("CoordSolver is immutable")

    def solve(self, m: Matrix):
        """Coefficients c with sum c_i gen_i = m, or None if m is outside."""
        v = list(m.flat())
        coeffs = [ZERO] * self.k
        for p, vec, vec_nz, coeff, coeff_nz in self._rows:
            c = v[p]
            if not c._nz:
                continue
            for idx in vec_nz:
                v[idx] = v[idx] - c * vec[idx]
            for idx in coeff_nz:
                coeffs[idx] = coeffs[idx] + c * coeff[idx]
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
