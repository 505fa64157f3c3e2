"""Exact row reduction, kernels, subspaces, and structure constants.

Vectors and rows are sparse dicts {column: nonzero ExactScalar}, the
layout of ``Matrix`` rows, and every row update v +- c * w goes through
the in-place row kernel ``matrix.add_scaled`` / ``matrix.sub_scaled``.
The workhorse is a deterministic RREF over Q(i, sqrt2, sqrt3): pivots
are chosen as the leftmost nonzero column and the first nonzero row in
index order (magnitude-based pivoting is meaningless in exact
arithmetic), so constraint presentations are reproducible run to run.

This module is the only place that eliminates: ``stacked_solve`` solves
sum a_i x_i = sum b_j y_j for every intersection, and
``Subspace.eliminate`` is the one reducer, also behind ``CoordSolver``.
"""

from __future__ import annotations

from .errors import LinearlyDependent, NotClosed
from .field import ONE, ZERO, ExactScalar, scalar
from .matrix import Matrix, add_scaled, commutator, sub_scaled


def _exact(vector) -> dict:
    """A sparse vector coerced into the field, without zero entries."""
    return {k: s for k, x in vector.items() if (s := scalar(x))}


def rref(rows, pivot_cols_limit=None):
    """Reduced row echelon form of a list of sparse rows.

    Row values are coerced with ``scalar`` and zeros dropped.  Returns
    (rref_rows, pivot_columns) with zero rows dropped.  If
    ``pivot_cols_limit`` is given, pivots are only searched among the first
    that many columns (used for augmented systems).
    """
    m = [_exact(row) for row in rows]
    pivots = []
    r = 0
    for c in sorted(set().union(*m)):
        if r == len(m) or (pivot_cols_limit is not None and c >= pivot_cols_limit):
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
    """Exact determinant by Gaussian elimination with swap-sign tracking."""
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


class Subspace:
    """A subspace of coordinate space held in exact reduced row echelon form.

    ``rows`` are sparse, so elimination touches only their nonzero entries.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim, rows, pivots):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

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
        return cls.from_vectors([m.vector() for m in mats], mats[0].n ** 2)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def eliminate(self, v: dict):
        """Reduce the sparse vector ``v`` in place against the basis rows;
        return the (row index, multiplier) pairs of the rows it used."""
        used = []
        for k, (row, p) in enumerate(zip(self.rows, self.pivots)):
            if p in v:
                c = v[p]
                sub_scaled(v, c, row)
                used.append((k, c))
        return used

    def contains(self, vector) -> bool:
        v = _exact(vector)
        self.eliminate(v)
        return not v

    def contains_matrix(self, m: Matrix) -> bool:
        return self.contains(m.vector())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Exact intersection of two spans via the stacked-kernel method."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        common = stacked_solve(self.rows, other.rows)[2]
        return Subspace(self.ambient_dim, *rref(common))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class CoordSolver:
    """Expands matrices in a fixed list of linearly independent generators.

    Built once per basis from an identity-augmented RREF: ``span`` holds
    the generator half of its rows, and ``_terms`` the (generator,
    coefficient) pairs of each row's identity half.  A solve eliminates
    the flattened target along ``span`` and adds up the terms of the rows
    it used.
    """

    __slots__ = ("span", "_terms")

    def __init__(self, gens):
        gens = list(gens)
        k = len(gens)
        n2 = gens[0].n ** 2
        red, pivots = rref([{**g.vector(), n2 + i: ONE} for i, g in enumerate(gens)],
                           pivot_cols_limit=n2)
        if len(red) != k:
            raise LinearlyDependent(f"only {len(red)} of {k} generators independent")
        object.__setattr__(self, "span", Subspace(n2, tuple(
            {j: x for j, x in row.items() if j < n2} for row in red), pivots))
        object.__setattr__(self, "_terms", tuple(
            tuple((j - n2, x) for j, x in row.items() if j >= n2) for row in red))

    def __setattr__(self, name, value):
        raise AttributeError("CoordSolver is immutable")

    def solve(self, m: Matrix):
        """Coefficients c with sum c_i gen_i = m, or None if m is outside."""
        v = m.vector()
        coeffs = [ZERO] * len(self._terms)
        for r, c in self.span.eliminate(v):
            for i, x in self._terms[r]:
                coeffs[i] = coeffs[i] + c * x
        return None if v else tuple(coeffs)


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
                if val:
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
