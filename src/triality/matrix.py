"""Sparse square matrices over Q(i, sqrt2, sqrt3).

Each row is a dict {column: entry} that holds only the nonzero entries,
the layout each ``ExactScalar`` uses for its own coordinates, so every
operation costs time in proportion to the nonzeros and the stored form is
canonical: two matrices are equal exactly when their rows are.  All
predicates are exact: a matrix either is Hermitian or it is not, with no
tolerance anywhere.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .field import ZERO, ONE, ExactScalar, scalar


def add_scaled(v: dict, c, w: dict) -> dict:
    """Set v = v + c * w in place for a nonzero scalar ``c``; returns v.

    With ``sub_scaled`` this is the one row kernel: every scaled row update
    of ``@``, the brackets, ``combination`` and ``linalg``'s elimination
    runs through it.  Each entry is built as ``s + c * x``, or as ``c * x``
    where v had none, and entries that cancel are dropped, so a sparse row
    stays canonical.
    """
    for k, x in w.items():
        s = v.get(k)
        if s is None:
            v[k] = c * x
        elif y := s + c * x:
            v[k] = y
        else:
            del v[k]
    return v


def sub_scaled(v: dict, c, w: dict) -> dict:
    """Set v = v - c * w in place for a nonzero scalar ``c``; returns v.

    Each entry is built as ``s - c * x``, or as ``-(c * x)`` where v had
    none; entries that cancel are dropped.
    """
    for k, x in w.items():
        s = v.get(k)
        if s is None:
            v[k] = -(c * x)
        elif y := s - c * x:
            v[k] = y
        else:
            del v[k]
    return v


class Matrix:
    """Immutable square matrix of ExactScalar entries, stored sparsely."""

    __slots__ = ("rows", "n")

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

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return NotImplemented
        return self.scale(other)

    __rmul__ = __mul__

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
                add_scaled(acc, a, brows[k])
            out.append(acc)
        return Matrix._of(out, self.n)

    def power(self, k: int) -> "Matrix":
        if k < 0:
            raise ValueError(f"negative matrix power {k}")
        out = Matrix.identity(self.n)
        for _ in range(k):
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

    def trace(self) -> ExactScalar:
        out = ZERO
        for i, row in enumerate(self.rows):
            out = out + row.get(i, ZERO)
        return out

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
        """One bracketed line per row, every cell right-justified to the
        longest entry, or to width 1 when all are zero.

        Rows start as ``"0"`` cells and get only their nonzero entries.
        Each distinct entry, keyed by ``(den, nums)`` because that hashes
        faster than the scalar, is rendered and padded once; the memo
        lives for this call only.
        """
        texts = {}
        for row in self.rows:
            for x in row.values():
                key = (x.den, x.nums)
                if key not in texts:
                    texts[key] = str(x)
        width = max(map(len, texts.values()), default=1)
        cells = {key: text.rjust(width) for key, text in texts.items()}
        blank = ["0".rjust(width)] * self.n
        lines = []
        for row in self.rows:
            line = blank.copy()
            for j, x in row.items():
                line[j] = cells[x.den, x.nums]
            lines.append("[ " + "  ".join(line) + " ]")
        return "\n".join(lines)


def _bracket(a: Matrix, b: Matrix, combine) -> Matrix:
    """ab - ba or ab + ba, as ``combine`` is ``sub_scaled`` or ``add_scaled``.

    One pass per row into one accumulator: row i adds a_ik times row k of
    b, then combines b_ik times row k of a, with no intermediate product
    matrix and no final entrywise pass.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} vs {b.n}")
    arows, brows = a.rows, b.rows
    out = []
    for arow, brow in zip(arows, brows):
        acc = {}
        for k, x in arow.items():
            add_scaled(acc, x, brows[k])
        for k, y in brow.items():
            combine(acc, y, arows[k])
        out.append(acc)
    return Matrix._of(out, a.n)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """The Lie bracket [a, b] = ab - ba, exact."""
    return _bracket(a, b, sub_scaled)


def combination(terms, n: int) -> Matrix:
    """The n x n linear combination sum c * m over (c, m) in ``terms``.

    Each output row accumulates straight from the terms' rows through
    ``add_scaled``, with no zero matrix, scaled copy or intermediate sum;
    every entry is built as ``s + c * x``, the same scalar operations as
    adding up ``m.scale(c)``.  A zero coefficient adds nothing.
    """
    rows = [{} for _ in range(n)]
    for c, m in terms:
        if m.n != n:
            raise DimensionMismatch(f"{m.n} vs {n}")
        if c:
            for acc, row in zip(rows, m.rows):
                add_scaled(acc, c, row)
    return Matrix._of(rows, n)


def anticommutator(a: Matrix, b: Matrix) -> Matrix:
    """{a, b} = ab + ba, exact, in the one pass of ``commutator``."""
    return _bracket(a, b, add_scaled)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; result dimension is a.n * b.n."""
    n = b.n
    return Matrix._of(({j * n + l: x * y for j, x in arow.items()
                        for l, y in brow.items()}
                       for arow in a.rows for brow in b.rows), a.n * n)
