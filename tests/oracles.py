"""Independent oracles used by the tests.

These deliberately avoid the library's own arithmetic, matmul / RREF /
determinant code paths and its sparse layout, so that the values they
produce count as independent evidence: scalars as dense 8-tuples of
Fractions, matrices read entry by entry through m[i, j] into dense rows,
products by the definition sum, rank by a from-scratch elimination,
determinants by cofactor expansion, linear combinations by scaling and
adding whole matrices, scalar text and LaTeX through ``Fraction``, and
matrix text and LaTeX by rendering every one of the n*n entries.  The
indented JSON layout has the stdlib call itself as its reference.  A few
helpers only read the library's values in another shape, from API that
the program itself calls: ``coords`` reads a scalar's ``den`` and
``nums``, ``scalar_from_json`` decodes through ``emit.matrix_from_json``,
and ``kernel_basis`` expands ``linalg.rref``'s free columns.  The
intertwiner oracle builds its own equations and takes only their rank
from ``linalg.rref``; the fixed-vector oracle takes coordinates by
projection and ranks with ``naive_rank``, so it shares no elimination
with ``linalg``.  The local-triality oracle multiplies octonions by a
table built from the Fano lines and solves its equations with
``naive_solve``, ``naive_rank``'s elimination followed by back
substitution.  A fingerprint is an object's whole value as plain
tuples, so a test can tell whether a call changed what it was given.
"""

import json
from collections.abc import Mapping
from fractions import Fraction

from triality._record import Record
from triality.emit import matrix_from_json
from triality.field import HALF, I, ONE, ZERO, ExactScalar, rational
from triality.linalg import rref
from triality.matrix import Matrix, combination

# -- scalars: dense 8-tuples over {1, sqrt2, sqrt3, sqrt6} x {1, i} ----------

# e_a * e_b = factor * e_index over the radical basis {1, sqrt2, sqrt3, sqrt6}.
_RADICAL_MUL = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 2), (3, 1), (2, 2)),
    ((2, 1), (3, 1), (0, 3), (1, 3)),
    ((3, 1), (2, 2), (1, 3), (0, 6)),
)
_NAMES = ("1", "sqrt2", "sqrt3", "sqrt6", "i", "i*sqrt2", "i*sqrt3", "i*sqrt6")
_LATEX_NAMES = ("", r"\sqrt{2}", r"\sqrt{3}", r"\sqrt{6}",
                "i", r"i \sqrt{2}", r"i \sqrt{3}", r"i \sqrt{6}")


def coords(x: ExactScalar) -> tuple:
    """The eight coordinates of ``x`` as Fractions, zeros included: each
    stored numerator over ``den``."""
    out = [Fraction(0)] * 8
    for k, c in x.nums:
        out[k] = Fraction(c, x.den)
    return tuple(out)


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


def dense_scalar_latex(a) -> str:
    """The nonzero coordinates as LaTeX terms in index order, each Fraction
    in lowest terms: a sign ("+" only between terms), then the numerator
    and the radical (a numerator of 1 left out before a radical), over the
    denominator in a ``\\frac`` unless it is 1."""
    out = ""
    for k, c in enumerate(a):
        if not c:
            continue
        p, q = abs(c.numerator), c.denominator
        name = _LATEX_NAMES[k]
        top = name if name and p == 1 else f"{p}{name}"
        out += "-" if c < 0 else "+" if out else ""
        out += top if q == 1 else r"\frac{%s}{%d}" % (top, q)
    return out or "0"


def fraction_str(x):
    """``str(x)`` through Fractions: each stored numerator over ``den`` as
    a Fraction, printed by ``str``, with the name of its coordinate after
    it; the reference for ``ExactScalar.__str__``, which formats the
    integers itself."""
    terms = []
    for k, c in x.nums:
        c = Fraction(c, x.den)
        name = _NAMES[k]
        if k == 0:
            term = str(c)
        elif c == 1:
            term = name
        elif c == -1:
            term = "-" + name
        else:
            term = f"{c}*{name}"
        terms.append(term)
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


def dense_trace(m: Matrix):
    """tr(M) = sum_i M_ii, read through m[i, i]."""
    return sum((m[i, i] for i in range(m.n)), ZERO)


def dense_trace_product(a: Matrix, b: Matrix):
    """tr(AB) = sum_i sum_k A_ik B_ki over all n*n index pairs."""
    n = a.n
    acc = 0
    for i in range(n):
        for k in range(n):
            acc = acc + a[i, k] * b[k, i]
    return acc


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


def _echelon(vectors) -> list:
    """The rows of an echelon form, each with its pivot column, by plain
    forward elimination (no pivot normalization)."""
    rows = [list(v) for v in vectors]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inverse()
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append((c, rows[rank]))
    return pivots


def naive_rank(vectors) -> int:
    """Row rank by plain forward elimination (no pivot normalization)."""
    return len(_echelon(vectors))


def naive_solve(rows, rhs) -> list:
    """The columns x_1 .. x_r with rows x_t = the t-th column of ``rhs``,
    for ``rows`` m x n and ``rhs`` m x r, by ``naive_rank``'s elimination
    of the augmented rows and back substitution.  Raises ValueError when
    some column has no solution (a pivot right of column n) or when the
    solutions are not unique (a column left of n with no pivot)."""
    n, r = len(rows[0]), len(rhs[0])
    pivots = _echelon([list(row) + list(b) for row, b in zip(rows, rhs)])
    if [c for c, _ in pivots] != list(range(n)):
        raise ValueError("no unique solution")
    xs = [[None] * n for _ in range(r)]
    for c, row in reversed(pivots):
        for t, x in enumerate(xs):
            x[c] = (row[n + t] - sum((row[j] * x[j] for j in range(c + 1, n)),
                                     ZERO)) / row[c]
    return xs


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
    with the entries read through m[i, j].  The dimension is n*n minus
    the rank that ``linalg.rref`` finds.  By Schur's lemma it is 1 when
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
    return n * n - len(rref(rows)[0])


def kernel_basis(rows, ncols: int) -> tuple:
    """A basis of the right kernel of the system ``rows`` x = 0, in reduced
    row echelon form: from the RREF of ``rows`` (``linalg.rref``), one
    vector per free column f, 1 there and minus column f of each pivot row
    at that row's pivot."""
    red, pivots = rref(rows)
    free = [{f: ONE, **{p: -row[f] for row, p in zip(red, pivots) if f in row}}
            for f in range(ncols) if f not in pivots]
    return rref(free)[0]


def fixed_vectors(gens, families) -> tuple:
    """How many vectors a subalgebra of so(8) fixes in each family.

    ``families`` are generator lists in one index order, V first, so
    rho_K sends V_a to K_a.  V is orthogonal under tr(X^T Y) with norm^2
    2, so a generator X of the subalgebra (``gens``, 8x8 matrices in the
    span of V) has the coordinates c_a = tr(V_a^T X) / 2, read through
    m[i, j].  Each family maps X to sum c_a K_a by ``matrix.combination``;
    its count is 8 minus the rank of all images' rows stacked, by
    ``naive_rank``.  Conjugation in SO(8) lifts to Spin(8) and keeps
    every count.
    """
    vector = families[0]
    support = [[(i, j, x) for i, row in enumerate(dense(v))
                for j, x in enumerate(row) if x] for v in vector]
    gens = list(gens)
    coords = [tuple(enumerate(sum(v_ij * x[i, j] for i, j, v_ij in entries) / 2
                              for entries in support)) for x in gens]
    assert combination(coords, vector, 8) == gens, "generator outside so(8)"
    return tuple(8 - naive_rank([row for m in combination(coords, family, 8)
                                 for row in dense(m)])
                 for family in families)


# -- octonions: Cartan's local triality --------------------------------------

# e_i e_j = e_k around each line of the Fano plane, read cyclically
FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2),
              (7, 1, 3))


def octonion_table() -> dict:
    """(sign, k) with e_a e_b = sign * e_k for a, b in 0..7: e_0 is the
    unit, e_a^2 = -1 for a > 0, and e_i e_j = e_k = -e_j e_i around each
    Fano line."""
    table = {}
    for a in range(8):
        table[0, a] = table[a, 0] = (1, a)
        if a:
            table[a, a] = (-1, 0)
    for line in FANO_LINES:
        for r in range(3):
            i, j, k = line[r:] + line[:r]
            table[i, j], table[j, i] = (1, k), (-1, k)
    return table


def local_triality(gens) -> tuple:
    """For each A of ``gens`` (in so(8), acting on column vectors), the
    antisymmetric B and C with A(xy) = B(x)y + xC(y) for all octonions x
    and y (Cartan's principle of local triality: Baez, "The Octonions",
    Bull. AMS 39 (2002), 2.4); returns the B family and the C family.

    The unknowns are B_pq, then C_pq, for p < q (X_qp = -X_pq).  Each basis
    pair x = e_a, y = e_b and component k gives one equation:
    sum_p B_pa [e_p e_b]_k + sum_p C_pb [e_a e_p]_k = [A(e_a e_b)]_k, 512
    in 56 unknowns, with one right-hand side per A, solved together by
    ``naive_solve``; it raises unless every solution exists and is unique.
    Nothing here comes from ``clifford``, ``representations`` or
    ``linalg``.
    """
    table = octonion_table()
    pairs = [(p, q) for p in range(8) for q in range(p + 1, 8)]
    column = {pq: j for j, pq in enumerate(pairs)}
    rows, rhs = [], []
    for x in range(8):
        for y in range(8):
            eqs = [[0] * 56 for _ in range(8)]
            for p in range(8):
                # B_px [e_p e_y] and C_py [e_x e_p]; a diagonal entry is 0
                for offset, (i, j), (sign, k) in ((0, (p, x), table[p, y]),
                                                  (28, (p, y), table[x, p])):
                    if i != j:
                        eqs[k][offset + column[min(i, j), max(i, j)]] += (
                            sign if i < j else -sign)
            sign, c = table[x, y]
            rows += eqs
            rhs += [[a[k, c] * sign for a in gens] for k in range(8)]
    solutions = naive_solve([[rational(v) for v in row] for row in rows], rhs)

    def antisymmetric(values):
        return Matrix.from_entries(8, {e: v for (p, q), x in zip(pairs, values)
                                       for e, v in (((p, q), x), ((q, p), -x))})

    return ([antisymmetric(x[:28]) for x in solutions],
            [antisymmetric(x[28:]) for x in solutions])


def naive_add_scaled(v: dict, c, w: dict, sign: int) -> dict:
    """v + sign * c * w as a fresh dict, each entry built as
    ``s + sign * (c * x)`` through the ``ExactScalar`` operators alone and
    dropped when it is zero: the oracle of the fused row kernel."""
    out = dict(v)
    for k, x in w.items():
        y = out.get(k, ZERO) + sign * (c * x)
        if y:
            out[k] = y
        else:
            del out[k]
    return out


def dense_row_image(m: Matrix, coeffs: dict) -> dict:
    """A sparse coefficient row vector times ``m`` by the sweep over every
    column: entry k is sum_p x_p * m[p, k] over all n rows, read through
    m[i, j], and kept when it is nonzero."""
    return {k: s for k in range(m.n)
            if (s := sum((coeffs[p] * m[p, k] for p in range(m.n) if p in coeffs),
                         ZERO))}


def coefficient_rows(vectors) -> Matrix:
    """Up to 28 sparse coefficient vectors as the rows of a 28x28 matrix,
    built through ``Matrix.from_entries``: the form that the unpacked
    operator multiplies from the right."""
    return Matrix.from_entries(28, {(p, k): x for p, vec in enumerate(vectors)
                                    for k, x in vec.items()})


def dense_coefficients(coeffs: dict, size: int) -> list:
    """A sparse coefficient vector ``{generator: c}`` as the dense list of
    its ``size`` coefficients, once it is seen to keep the sparse layout:
    every key a generator index and no stored value zero."""
    assert set(coeffs) <= set(range(size)), sorted(coeffs)
    assert all(not x.is_zero for x in coeffs.values()), coeffs
    return [coeffs.get(i, ZERO) for i in range(size)]


def h_core() -> Matrix:
    """The Euclidean triality core as the paper prints it: the sign table
    times ``Fraction(1, 2)``, coerced through the dense ``Matrix(rows)``."""
    half = Fraction(1, 2)
    return Matrix([[x * half for x in row] for row in
                   ((-1, -1, 1, 1), (1, 1, 1, 1), (-1, 1, 1, -1), (-1, 1, -1, 1))])


def t_core() -> Matrix:
    """The Lorentzian triality core: the table of 1, -1, i and -i, each
    entry multiplied by ``HALF``, through the dense ``Matrix(rows)``."""
    rows = ((-ONE, I, -I, -I), (I, ONE, ONE, ONE),
            (-I, ONE, ONE, -ONE), (-I, ONE, -ONE, ONE))
    return Matrix([[HALF * x for x in row] for row in rows])


def su3_block(lam: Matrix) -> Matrix:
    """diag(0, lam, -lam^T) as a 7x7 matrix for a 3x3 ``lam``, read entry by
    entry through lam[i, j] into dense rows."""
    rows = [[ZERO] * 7 for _ in range(7)]
    for i in range(3):
        for j in range(3):
            rows[1 + i][1 + j] = lam[i, j]
            rows[4 + j][4 + i] = -lam[i, j]
    return Matrix(rows)


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
    """A pmatrix with every entry, zeros included, through
    ``dense_scalar_latex``."""
    body = r" \\ ".join(" & ".join(dense_scalar_latex(coords(x)) for x in row)
                        for row in dense(m))
    return r"\begin{pmatrix} %s \end{pmatrix}" % body


# -- JSON ----------------------------------------------------------------------


def scalar_from_json(obj) -> ExactScalar:
    """One JSON scalar, decoded and checked as the one entry of a 1 x 1
    matrix by ``emit.matrix_from_json``."""
    return matrix_from_json([[obj]])[0, 0]


def indented_json(obj) -> str:
    """The stdlib's indented, key-sorted layout, ended by a newline: what
    ``emit.dumps_line`` must write."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- fingerprints ----------------------------------------------------------------


def fingerprint(obj):
    """A plain value that changes whenever anything reachable from ``obj``
    does: a ``Matrix`` as its size and its rows of sorted ``(column, den,
    nums)`` entries, a scalar as ``(den, nums)``, a record as its type and
    its slots, a mapping as its items in order, and a list or tuple as its
    items.  str, int, bool and None stand for themselves; any other type
    raises TypeError, so nothing is compared by identity unseen."""
    if isinstance(obj, Matrix):
        return ("Matrix", obj.n, tuple(
            tuple(sorted((j, x.den, x.nums) for j, x in row.items()))
            for row in obj.rows))
    if isinstance(obj, ExactScalar):
        return (obj.den, obj.nums)
    if isinstance(obj, Record):
        return (type(obj).__name__,
                tuple(fingerprint(getattr(obj, name)) for name in obj.__slots__))
    if isinstance(obj, Mapping):
        return ("map", tuple((fingerprint(k), fingerprint(v))
                             for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(fingerprint(x) for x in obj))
    if obj is None or isinstance(obj, (str, int)):
        return obj
    raise TypeError(f"no fingerprint for {type(obj).__name__}")
