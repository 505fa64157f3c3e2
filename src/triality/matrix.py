"""Sparse square matrices over Q(i, sqrt2, sqrt3).

Each row is a dict {column: entry} that holds only the nonzero entries,
the layout each ``ExactScalar`` uses for its own coordinates, so every
operation costs time in proportion to the nonzeros and the stored form is
canonical: two matrices are equal exactly when their rows are.  All
predicates are exact: a matrix either is Hermitian or it is not, with no
tolerance anywhere.

Linear combinations of whole matrices work on entry vectors, the
row-major ``vector()``, so each term is one call of the row kernel
``add_scaled``; a call flattens each matrix once and keeps nothing.
"""

from __future__ import annotations

from math import gcd

from .errors import DimensionMismatch
from .field import _MUL, ZERO, ONE, ExactScalar, _sum, scalar


def add_scaled(v: dict, c, w: dict, sign: int = 1) -> dict:
    """Set v = v + sign * c * w in place for a nonzero scalar ``c`` and
    sign 1 or -1; returns v.

    This is the one row kernel: every scaled row update runs through it,
    looked up as ``matrix.add_scaled`` at call time, and entries that
    cancel are dropped, so a sparse row stays canonical.  Whether c has
    one term is tested once per call: ``one`` is 1 if so and 0 if not,
    which no nonzero x matches.  Where ``c`` and the entry x of w are both
    one-term, the product is taken on ints with ``_MUL``; where v already
    holds a one-term entry s on the product's coordinate, the numerators
    are added over a shared denominator, and one gcd reduces the result to
    the one scalar built.  A fused entry y carries the sign and joins s
    with e = 1.  Every other entry is built as ``s ± c * x``, or as
    ``±(c * x)`` where v had none.  Each scalar the kernel builds goes
    through ``ExactScalar._of``.
    """
    of, one = ExactScalar._of, 1 if len(c.nums) == 1 else 0
    if one:
        ((p, a),), cd = c.nums, c.den
        a, row = a * sign, _MUL[p]
    for k, x in w.items():
        s, e = v.get(k), sign
        if len(x.nums) == one:
            (q, b), = x.nums
            r, m = row[q]
            n, d, e = a * b * m, cd * x.den, 1
            if s is not None and len(s.nums) == 1 and s.nums[0][0] == r:
                t, sd, s = s.nums[0][1], s.den, None
                n, d = (n + t, d) if sd == d else (n * sd + t * d, d * sd)
                if not n:
                    del v[k]
                    continue
            g = gcd(n, d)
            y = of(d // g, ((r, n // g),))
        else:
            y = c * x
        if s is None:
            v[k] = y if e > 0 else -y
        elif y := _sum(s, y, e):
            v[k] = y
        else:
            del v[k]
    return v


def common_size(mats) -> int:
    """The n of a nonempty list of n x n matrices, all of one size."""
    if not mats:
        raise ValueError("empty matrix list")
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise DimensionMismatch(f"mixed sizes {sorted({m.n for m in mats})}")
    return n


class Matrix:
    """Immutable square matrix of ExactScalar entries, stored sparsely.

    A matrix is not iterable: ``m[i, j]`` takes a pair, and without
    ``__iter__ = None`` Python would iterate it through ``m[0]``, ``m[1]``
    and fail far from the mistake.
    """

    __slots__ = ("rows", "n")
    __iter__ = None

    def __init__(self, rows):
        """Build from dense rows of anything ``scalar`` accepts."""
        rows = list(rows)
        if any(isinstance(row, dict) for row in rows):
            raise TypeError("Matrix(rows) takes dense rows, not sparse dicts")
        rows = [tuple(row) for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise DimensionMismatch("matrix must be square")
        object.__setattr__(self, "rows", tuple(
            {j: s for j, s in enumerate(map(scalar, row)) if s} for row in rows))
        object.__setattr__(self, "n", len(rows))

    @classmethod
    def _of(cls, rows, n: int) -> "Matrix":
        """Wrap sparse rows that already hold only nonzero ExactScalars."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", tuple(rows))
        object.__setattr__(m, "n", n)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "Matrix":
        return cls._of(({} for _ in range(n)), n)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(({i: ONE} for i in range(n)), n)

    @classmethod
    def diag(cls, entries) -> "Matrix":
        entries = list(entries)
        return cls.from_entries(len(entries), {(i, i): e for i, e in enumerate(entries)})

    @classmethod
    def from_entries(cls, n: int, entries) -> "Matrix":
        """Build an n x n matrix from {(i, j): value} (absent entries zero)."""
        rows = [{} for _ in range(n)]
        for (i, j), v in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatch(f"entry {(i, j)} outside {n}x{n}")
            if v := scalar(v):
                rows[i][j] = v
        return cls._of(rows, n)

    @classmethod
    def block2(cls, tl: "Matrix", tr: "Matrix", bl: "Matrix", br: "Matrix") -> "Matrix":
        """Assemble a 2x2 block matrix from four equal-size blocks."""
        m = tl.n
        if any(b.n != m for b in (tr, bl, br)):
            raise DimensionMismatch("block2 needs four blocks of equal size")
        rows = [{**left, **{m + j: x for j, x in right.items()}}
                for top, bottom in ((tl, tr), (bl, br))
                for left, right in zip(top.rows, bottom.rows)]
        return cls._of(rows, 2 * m)

    # -- accessors ---------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry {ij} outside {self.n}x{self.n}")
        return self.rows[i].get(j, ZERO)

    def block(self, i0: int, j0: int, size: int) -> "Matrix":
        if min(i0, j0, size) < 0 or max(i0, j0) + size > self.n:
            raise DimensionMismatch(
                f"{size}x{size} block at {(i0, j0)} outside {self.n}x{self.n}")
        return Matrix._of(({j - j0: x for j, x in row.items() if j0 <= j < j0 + size}
                           for row in self.rows[i0:i0 + size]), size)

    def vector(self) -> dict:
        """The entries as a sparse vector {i*n + j: entry}, row-major."""
        n = self.n
        return {i * n + j: x for i, row in enumerate(self.rows)
                for j, x in row.items()}

    @classmethod
    def _from_vector(cls, v: dict, n: int) -> "Matrix":
        """The n x n matrix whose ``vector()`` is ``v``, a sparse vector of
        nonzero ExactScalars at indices below n*n: each entry keeps its
        place in its row, and no scalar is built."""
        rows = [{} for _ in range(n)]
        for k, x in v.items():
            rows[k // n][k % n] = x
        return cls._of(rows, n)

    # -- algebra -----------------------------------------------------------
    def _merge(self, other, op):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        out = []
        for ra, rb in zip(self.rows, other.rows):
            acc = dict(ra)
            for k, x in rb.items():
                if y := op(acc.get(k, ZERO), x):
                    acc[k] = y
                else:
                    del acc[k]
            out.append(acc)
        return Matrix._of(out, self.n)

    def __add__(self, other):
        return self._merge(other, ExactScalar.__add__)

    def __sub__(self, other):
        return self._merge(other, ExactScalar.__sub__)

    def _map(self, fn):
        """Apply ``fn``, which sends nonzero scalars to nonzero ones, entrywise."""
        return Matrix._of(({j: fn(x) for j, x in row.items()} for row in self.rows),
                          self.n)

    def __neg__(self):
        return self._map(ExactScalar.__neg__)

    def scale(self, c) -> "Matrix":
        c = scalar(c)
        return self._map(c.__mul__) if c else Matrix.zero(self.n)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        brows = other.rows
        out = []
        for arow in self.rows:
            acc = {}
            for k, a in arow.items():
                if brow := brows[k]:
                    add_scaled(acc, a, brow)
            out.append(acc)
        return Matrix._of(out, self.n)

    def power(self, k: int) -> "Matrix":
        if k < 0:
            raise ValueError(f"negative matrix power {k}")
        if k == 0:
            return Matrix.identity(self.n)
        out = self
        for _ in range(k - 1):
            out = out @ self
        return out

    def transpose(self) -> "Matrix":
        cols = [{} for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix._of(cols, self.n)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def conj(self) -> "Matrix":
        return self._map(ExactScalar.conj)

    def dagger(self) -> "Matrix":
        """Conjugate transpose."""
        return self.conj().transpose()

    # -- exact predicates ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not any(self.rows)

    @property
    def is_real(self) -> bool:
        return all(x.is_real for row in self.rows for x in row.values())

    @property
    def is_symmetric(self) -> bool:
        return self == self.transpose()

    @property
    def is_antisymmetric(self) -> bool:
        return (self + self.transpose()).is_zero

    @property
    def is_hermitian(self) -> bool:
        return self == self.dagger()

    @property
    def is_antihermitian(self) -> bool:
        return (self + self.dagger()).is_zero

    @property
    def is_unitary(self) -> bool:
        return (self @ self.dagger()) == Matrix.identity(self.n)

    @property
    def is_orthogonal(self) -> bool:
        return self.is_real and (self @ self.transpose()) == Matrix.identity(self.n)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(frozenset(row.items()) for row in self.rows))

    def __repr__(self):
        return f"Matrix({self.n}x{self.n})"

    def __str__(self):
        """One bracketed line per row: ``emit``'s text layout, imported at
        call time as ``emit`` imports this module."""
        from .emit import _alone, _text
        return _alone(_text, self)


def _bracket(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """ab - ba or ab + ba, as ``sign`` is -1 or 1.

    One pass per row into one accumulator: row i adds a_ik times row k of
    b, then combines b_ik times row k of a, with no intermediate product
    matrix and no final entrywise pass; an empty row k adds nothing and
    is skipped.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} vs {b.n}")
    arows, brows = a.rows, b.rows
    out = []
    for arow, brow in zip(arows, brows):
        acc = {}
        for k, x in arow.items():
            if row := brows[k]:
                add_scaled(acc, x, row)
        for k, y in brow.items():
            if row := arows[k]:
                add_scaled(acc, y, row, sign)
        out.append(acc)
    return Matrix._of(out, a.n)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """The Lie bracket [a, b] = ab - ba, exact."""
    return _bracket(a, b, -1)


def _accumulate(v: dict, terms, mats, flat: dict, n: int, sign: int) -> dict:
    """Add (``sign`` 1) or subtract (-1) c * mats[key] for each (key, c)
    of ``terms`` to the entry vector ``v`` in place, one row-kernel call
    per term, skipping zero coefficients and empty matrices; returns v.
    ``flat`` holds the entry vectors the calling function has made so
    far.  DimensionMismatch for a matrix that is not n x n."""
    for k, c in terms:
        if (w := flat.get(k)) is None:
            m = mats[k]
            if m.n != n:
                raise DimensionMismatch(f"{m.n} vs {n}")
            w = flat[k] = m.vector()
        if c and w:
            add_scaled(v, c, w, sign)
    return v


def combination(rows, mats, n: int) -> list:
    """The n x n matrix sum c * mats[key] over the (key, c) terms of each
    row of ``rows``, each row a sequence.

    ``mats`` is a mapping or a sequence.  Each matrix is flattened to its
    entry vector once per call, however many rows it enters; each term is
    one row-kernel call into the row's accumulator, split back into rows
    once.  Every entry is ``s + c * x``, the value of adding up
    ``m.scale(c)``.  A zero coefficient adds nothing, and a row of one
    term with coefficient one is its matrix itself, not a copy.  Raises
    DimensionMismatch for a matrix that is not n x n.
    """
    flat, out = {}, []
    for terms in rows:
        if len(terms) == 1 and terms[0][1] == ONE and mats[terms[0][0]].n == n:
            out.append(mats[terms[0][0]])
        else:
            out.append(Matrix._from_vector(
                _accumulate({}, terms, mats, flat, n, 1), n))
    return out


def is_combination(pairs, mats) -> bool:
    """Whether m == sum c * mats[key] over (key, c) in ``terms`` for each
    (m, terms) of ``pairs``, stopping at the first that is not.

    By cancellation: each c * y comes off m's entry vector through the
    row kernel, so equal entries cancel and build no scalar, and nothing
    may be left.  ``mats`` are flattened as in ``combination``.  Raises
    DimensionMismatch unless every m and every matrix named are of one
    size.
    """
    flat, size = {}, None
    for m, terms in pairs:
        if size is None:
            size = m.n
        elif m.n != size:
            raise DimensionMismatch(f"{m.n} vs {size}")
        if _accumulate(m.vector(), terms, mats, flat, size, -1):
            return False
    return True


def trace_product(a: Matrix, b: Matrix) -> ExactScalar:
    """tr(ab) = sum a_ik b_ki over the nonzeros of a, with no product
    matrix: each term looks up entry i of row k of b."""
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} vs {b.n}")
    brows = b.rows
    out = ZERO
    for i, arow in enumerate(a.rows):
        for k, x in arow.items():
            y = brows[k].get(i)
            if y is not None:
                out = out + x * y
    return out


def anticommutator(a: Matrix, b: Matrix) -> Matrix:
    """{a, b} = ab + ba, exact, in the one pass of ``commutator``."""
    return _bracket(a, b, 1)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; result dimension is a.n * b.n."""
    n = b.n
    return Matrix._of(({j * n + l: x * y for j, x in arow.items()
                        for l, y in brow.items()}
                       for arow in a.rows for brow in b.rows), a.n * n)
