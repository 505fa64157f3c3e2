"""Independent oracles used by the tests.

These deliberately avoid the library's own arithmetic, matmul / RREF /
determinant code paths and its sparse layout, so that the values they
produce count as independent evidence: scalars as dense 8-tuples of
Fractions, matrices read entry by entry through m[i, j] into dense rows,
products by the definition sum, rank by a from-scratch elimination,
determinants by cofactor expansion, linear combinations by scaling and
adding whole matrices, and text and LaTeX by rendering every one of the
n*n entries.  The indented JSON layout has the stdlib call itself as its
reference.  The intertwiner oracle builds its own equations and takes
only their kernel from ``linalg.kernel_basis``.
"""

import json
from fractions import Fraction

from triality.emit import scalar_to_latex
from triality.linalg import kernel_basis
from triality.matrix import Matrix

# -- scalars: dense 8-tuples over {1, sqrt2, sqrt3, sqrt6} x {1, i} ----------

# e_a * e_b = factor * e_index over the radical basis {1, sqrt2, sqrt3, sqrt6}.
_RADICAL_MUL = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 2), (3, 1), (2, 2)),
    ((2, 1), (3, 1), (0, 3), (1, 3)),
    ((3, 1), (2, 2), (1, 3), (0, 6)),
)
_NAMES = ("1", "sqrt2", "sqrt3", "sqrt6", "i", "i*sqrt2", "i*sqrt3", "i*sqrt6")


def dense_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def dense_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def dense_neg(a):
    return tuple(-x for x in a)


def dense_mul(a, b):
    """The product term by term: radicals by the table, and i * i = -1."""
    acc = [Fraction(0)] * 8
    for p in range(8):
        for q in range(8):
            r, m = _RADICAL_MUL[p % 4][q % 4]
            imaginary = (p >= 4) + (q >= 4)
            sign = -1 if imaginary == 2 else 1
            acc[4 * (imaginary % 2) + r] += a[p] * b[q] * m * sign
    return tuple(acc)


def dense_conj(a):
    return tuple(a[:4]) + tuple(-x for x in a[4:])


def dense_monomial_inverse(a):
    """The inverse of c * e_k, the one nonzero coordinate of ``a``: e_k * e_k
    is m * 1 by the table (and i * i = -1), so the inverse is e_k / (c m)."""
    (k, c), = [(k, c) for k, c in enumerate(a) if c]
    _, m = _RADICAL_MUL[k % 4][k % 4]
    out = [Fraction(0)] * 8
    out[k] = 1 / (c * (-m if k >= 4 else m))
    return tuple(out)


def dense_str(a):
    """The nonzero coordinates as "c*name" terms in index order."""
    terms = []
    for k, c in enumerate(a):
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        elif c in (1, -1):
            terms.append(("-" if c < 0 else "") + _NAMES[k])
        else:
            terms.append(f"{c}*{_NAMES[k]}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


# -- matrices ----------------------------------------------------------------


def dense(m: Matrix):
    """The entries of m as a list of rows, read through m[i, j] only."""
    return [[m[i, j] for j in range(m.n)] for i in range(m.n)]


def dense_product(a: Matrix, b: Matrix):
    """(AB)_ij = sum_k A_ik B_kj, straight from the definition."""
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return rows


def dense_sum(a: Matrix, b: Matrix):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(dense(a), dense(b))]


def dense_transpose(a: Matrix):
    return [list(col) for col in zip(*dense(a))]


def dense_kron(a: Matrix, b: Matrix):
    """(A (x) B)_(i n + k, j n + l) = A_ij B_kl."""
    return [[a[i, j] * b[k, l] for j in range(a.n) for l in range(b.n)]
            for i in range(a.n) for k in range(b.n)]


def dense_block2(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix):
    return ([ra + rb for ra, rb in zip(dense(tl), dense(tr))]
            + [ra + rb for ra, rb in zip(dense(bl), dense(br))])


def naive_matmul(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(dense_product(a, b))


def naive_bracket(a: Matrix, b: Matrix) -> Matrix:
    return naive_matmul(a, b) - naive_matmul(b, a)


def naive_anticommutator(a: Matrix, b: Matrix) -> Matrix:
    """{a, b}_ij = (AB)_ij + (BA)_ij, both products from the definition."""
    return Matrix([[x + y for x, y in zip(ab, ba)]
                   for ab, ba in zip(dense_product(a, b), dense_product(b, a))])


def naive_rank(vectors) -> int:
    """Row rank by plain forward elimination (no pivot normalization)."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inverse()
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def in_span(vectors, target) -> bool:
    """Membership via rank comparison, independent of the coord solver."""
    base = naive_rank(vectors)
    return naive_rank(list(vectors) + [list(target)]) == base


def matrix_in_span(mats, target) -> bool:
    return in_span([sum(dense(m), []) for m in mats], sum(dense(target), []))


def cofactor_det(m: Matrix):
    """Determinant by recursive cofactor expansion along the first row."""
    n = m.n
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        if not m[0, j]:
            continue
        minor = Matrix([[m[r, c] for c in range(n) if c != j]
                        for r in range(1, n)])
        term = m[0, j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def intertwiner_dim(xs, ys) -> int:
    """The dimension of the space of matrices S with S X_a = Y_a S for
    every pair (X_a, Y_a) of ``xs`` and ``ys``.

    Each entry (i, j) of each pair is one linear equation in the n*n
    unknowns S_pq (column p*n + q): sum_k S_ik X_kj - sum_k Y_ik S_kj = 0,
    with the entries read through m[i, j].  The kernel comes from
    ``linalg.kernel_basis``.  By Schur's lemma the dimension is 1 when
    both families are the same absolutely irreducible representation up
    to a change of basis, and 0 when they are inequivalent irreducibles.
    """
    n = xs[0].n
    rows = []
    for x, y in zip(xs, ys):
        for i in range(n):
            for j in range(n):
                row = {}
                for k in range(n):
                    row[i * n + k] = row.get(i * n + k, 0) + x[k, j]
                    row[k * n + j] = row.get(k * n + j, 0) - y[i, k]
                rows.append(row)
    return len(kernel_basis(rows, n * n))


def naive_combination(terms, n: int) -> Matrix:
    """sum c * m over (c, m) in terms, by scaling each matrix and adding it
    to a running sum that starts from the zero matrix."""
    acc = Matrix.zero(n)
    for c, m in terms:
        acc = acc + m.scale(c)
    return acc


# -- text and LaTeX --------------------------------------------------------------


def dense_matrix_text(m: Matrix) -> str:
    """Every entry rendered with str, zeros included, and right-justified to
    the widest of all n*n cells."""
    cells = [[str(x) for x in row] for row in dense(m)]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]"
                     for row in cells)


def dense_matrix_latex(m: Matrix) -> str:
    """A pmatrix with every entry, zeros included, through scalar_to_latex."""
    body = r" \\ ".join(" & ".join(scalar_to_latex(x) for x in row)
                        for row in dense(m))
    return r"\begin{pmatrix} %s \end{pmatrix}" % body


# -- JSON ----------------------------------------------------------------------


def indented_json(obj) -> str:
    """The stdlib's indented, key-sorted layout that ``emit.dumps`` must match."""
    return json.dumps(obj, indent=2, sort_keys=True)
