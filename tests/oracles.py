"""Independent oracles used by the tests.

These deliberately avoid the library's own matmul / RREF / determinant
code paths and its sparse layout, so that the values they produce count
as independent evidence: matrices read entry by entry through m[i, j]
into dense rows, products by the definition sum, rank by a from-scratch
elimination, determinants by cofactor expansion.
"""

from triality.field import ZERO
from triality.matrix import Matrix


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
            acc = ZERO
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
    total = ZERO
    for j in range(n):
        if not m[0, j]:
            continue
        minor = Matrix([[m[r, c] for c in range(n) if c != j]
                        for r in range(1, n)])
        term = m[0, j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total
