"""RREF, kernels, subspaces, and the structure-constant solver."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (cofactor_det, dense, dense_coefficients, in_span,
                     matrix_in_span, naive_bracket, naive_combination,
                     naive_rank)
from triality import linalg, subalgebras
from triality.clifford import EUCLIDEAN, LORENTZIAN
from triality.errors import DimensionMismatch, LinearlyDependent, NotClosed
from triality.field import HALF, I, ONE, SQRT2, ZERO, rational
from triality.linalg import (CoordSolver, StructureConstants, Subspace, det,
                             is_closed, kernel_basis, rref, same_structure,
                             structure_constants)
from triality.matrix import Matrix, commutator
from triality.outer import graded_basis, signature_ops
from triality.representations import (GEN_INDICES, _make_basis, basis,
                                      real_span, same_structure_constants,
                                      spinor_bases, structure_mismatches,
                                      vector_basis)
from triality.subalgebras import g2_basis, intersect, restrict

# every p/q with q <= 3 and |p/q| <= 3, and more
fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))
# short lists of 4-vectors: small enough that spans meet and miss often
vectors4 = st.lists(st.lists(fractions, min_size=4, max_size=4),
                    min_size=1, max_size=3)
# a few field values, zero among them, so that combinations cancel often
entries = st.sampled_from([ZERO, ONE, -ONE, rational(2), HALF, SQRT2, I,
                           ONE + I, SQRT2 - ONE])


def _exact(vectors):
    return [[rational(x) for x in v] for v in vectors]


def _sparse(v):
    """A dense row as the sparse vector the library takes, zeros kept so
    that the entry points have to drop them."""
    return dict(enumerate(v))


def _dense(v, n):
    return [v.get(k, ZERO) for k in range(n)]


def _as_matrix(v):
    """A 4-vector as the 2x2 matrix it flattens from."""
    return Matrix([v[:2], v[2:]])


def test_kernel_of_identity_is_trivial():
    rows = Matrix.identity(8).rows
    assert kernel_basis(rows, 8) == ()


def test_kernel_of_zero_map_is_everything():
    rows = [_sparse([ZERO] * 5) for _ in range(3)]
    assert len(kernel_basis(rows, 5)) == 5


def test_rref_pivots_are_deterministic_and_normalized():
    rows = [_sparse([rational(0), rational(2), rational(4)]),
            _sparse([rational(0), rational(1), rational(3)])]
    red, pivots = rref(rows)
    assert pivots == (1, 2)
    assert red[0][1] == ONE and red[1][2] == ONE
    assert 2 not in red[0]  # fully reduced above and below


@given(st.lists(st.lists(fractions, min_size=4, max_size=4),
                min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_rref_is_idempotent(rows):
    rows = [_sparse(map(rational, row)) for row in rows]
    red, _ = rref(rows)
    again, _ = rref(list(red))
    assert again == red


@given(st.lists(st.lists(fractions, min_size=5, max_size=5),
                min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_rank_plus_nullity(rows):
    rows = _exact(rows)
    red, pivots = rref(map(_sparse, rows))
    assert len(red) + len(kernel_basis(map(_sparse, rows), 5)) == 5
    assert len(red) == naive_rank(rows)


@st.composite
def sparse_rows(draw, ncols=5):
    """Sparse rows, some empty or of zeros only, with some drawn again."""
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entries,
                                         max_size=3), min_size=1, max_size=5))
    again = draw(st.lists(st.sampled_from(rows), max_size=2))
    return draw(st.permutations(rows + again))


@given(sparse_rows())
@settings(max_examples=80, deadline=None)
def test_rref_is_the_reduced_echelon_form_of_its_input(rows):
    """Pivots strictly increase, each row is 1 at its pivot and alone in
    its pivot column, and the rows span the input: by the uniqueness of
    the RREF of a row space, that pins every presentation."""
    red, pivots = rref(rows)
    assert list(pivots) == sorted(set(pivots)) and len(red) == len(pivots)
    for row, p in zip(red, pivots):
        assert row[p] == ONE and min(row) == p and ZERO not in row.values()
        assert not any(p in other for other in red if other is not row)
    given_rows = [_dense(row, 5) for row in rows]
    out = [_dense(row, 5) for row in red]
    assert naive_rank(given_rows) == naive_rank(out) == naive_rank(given_rows + out)


@st.composite
def square_matrices(draw):
    """1x1 to 4x4 matrices, sparse enough to be singular often, with a row
    repeated now and then, and rows shuffled so pivots come out of order."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        rows[-1] = rows[0]
    return Matrix(draw(st.permutations(rows)))


@given(square_matrices())
@settings(max_examples=80, deadline=None)
def test_det_matches_the_cofactor_expansion(m):
    assert det(m) == cofactor_det(m)


def test_only_insert_scales_a_pivot():
    """``_insert`` is the one elimination step of ``linalg``: no other
    function there calls ``.inverse()``."""
    tree = ast.parse(Path(linalg.__file__).read_text())
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "inverse"}
    assert callers == {"_insert"}


def test_vector_basis_structure_constants_close_and_antisymmetric():
    gens = vector_basis().matrices()
    f = structure_constants(gens)
    assert f.size == 28
    for (a, b, c), val in f.entries.items():
        assert f[(b, a, c)] == -val


def test_structure_constants_rejects_dependent_input():
    """The error names how many of the generators are independent.  An
    empty list is a ValueError at every entry point that takes one."""
    for build in (CoordSolver, structure_constants, is_closed,
                  Subspace.from_matrices, real_span, intersect):
        with pytest.raises(ValueError, match="empty"):
            build([])
    v = vector_basis()
    both = v[(0, 1)] + v[(0, 2)]
    for gens, independent in (
            ([v[(0, 1)], v[(0, 2)], both], 2),
            ([v[(0, 1)], both, v[(0, 2)], v[(0, 1)], v[(1, 2)]], 3)):
        with pytest.raises(LinearlyDependent, match=(
                f"^only {independent} of {len(gens)} generators independent$")):
            structure_constants(gens)


def test_not_closed_reports_the_offending_pair():
    v = vector_basis()
    with pytest.raises(NotClosed, match=(
            "^bracket of generators 0 and 1 leaves the span$")) as err:
        structure_constants([v[(0, 1)], v[(1, 2)]])
    assert (err.value.a, err.value.b) == (0, 1)
    assert err.value.residual == commutator(v[(0, 1)], v[(1, 2)])


def test_mixed_matrix_sizes_are_rejected():
    """A list of 2x2 and 4x4 matrices, in either order, also for the real
    span and the seed certificate, and a matrix of another size than the
    span it is tested or solved against."""
    i2, i4 = Matrix.identity(2), Matrix.identity(4)
    mixed = r"^mixed sizes \[2, 4\]$"
    for build in (CoordSolver, Subspace.from_matrices, structure_constants,
                  is_closed, real_span, same_structure):
        for mats in ([i2, i4], [i4, i2]):
            with pytest.raises(DimensionMismatch, match=mixed):
                build(mats)
    with pytest.raises(DimensionMismatch, match="^2x2 in ambient 16$"):
        CoordSolver([i4]).solve(i2)
    with pytest.raises(DimensionMismatch, match="^4x4 in ambient 4$"):
        Subspace.from_matrices([i2]).contains_matrix(i4)


_SIX_BASES = [(sig, k) for sig in (EUCLIDEAN, LORENTZIAN) for k in range(3)]
_SIX_IDS = [f"{sig}-{'VLR'[k]}" for sig, k in _SIX_BASES]


def _six_basis(sig, k):
    return ((vector_basis(sig),) + spinor_bases(sig))[k].matrices()


@pytest.mark.parametrize("sig, k", _SIX_BASES, ids=_SIX_IDS)
def test_each_bracket_is_the_combination_of_its_structure_constants(sig, k):
    """Rebuilding [X_a, X_b] from f_ab^c by scaling and adding whole
    matrices catches what comparing bases with each other cannot: an
    error common to every basis, such as a permuted coefficient.  Only
    the a < b half is stored; [X_b, X_a] is rebuilt from the derived
    slice f[b, a, :]."""
    gens = _six_basis(sig, k)
    f = structure_constants(gens)
    terms = {}
    for (a, b, c), val in f.entries.items():
        assert a < b and not val.is_zero
        assert f[b, a, c] == -val
        terms.setdefault((a, b), []).append((val, gens[c]))
    for a, x in enumerate(gens):
        for b in range(a + 1, len(gens)):
            assert naive_combination(terms.get((a, b), ()), 8) == commutator(
                x, gens[b]), (a, b)
            back = [(f[b, a, c], y) for c, y in enumerate(gens) if f[b, a, c]]
            assert naive_combination(back, 8) == commutator(gens[b], x), (b, a)


def test_first_mismatch_names_the_first_stored_key_that_differs():
    """None exactly when the arrays are equal; otherwise the first a < b
    key in sorted order, whichever side is asked, also for a key that
    only one side stores.  Arrays of different sizes are a ValueError."""
    fv = structure_constants(vector_basis().matrices())
    keys = sorted(fv.entries)
    assert fv.first_mismatch(fv) is None
    assert fv.first_mismatch(StructureConstants(28, dict(fv.entries))) is None
    for flip in ([keys[0]], [keys[-1]], [keys[9], keys[5], keys[77]]):
        flipped = StructureConstants(
            28, {**fv.entries, **{key: -fv.entries[key] for key in flip}})
        assert flipped != fv
        assert fv.first_mismatch(flipped) == min(flip)
        assert flipped.first_mismatch(fv) == min(flip)
    a, b, _ = keys[0]
    unused = next(d for d in range(28) if (a, b, d) not in fv.entries)
    for extra in (ONE, ZERO):  # a stored zero makes the arrays unequal
        padded = StructureConstants(28, {**fv.entries, (a, b, unused): extra})
        assert padded != fv
        assert padded.first_mismatch(fv) == (a, b, unused)
        assert fv.first_mismatch(padded) == (a, b, unused)
    with pytest.raises(ValueError, match="^sizes 28 and 27 differ$"):
        fv.first_mismatch(StructureConstants(27, {}))


def _full_path(gens, left, right):
    """The certificate's oracle: every bracket of the three lists solved,
    and the arrays compared; an error in solving is a False."""
    try:
        fv, fl, fr = map(structure_constants, (gens, left, right))
    except (LinearlyDependent, NotClosed):
        return False
    return fv.first_mismatch(fl) is None and fl.first_mismatch(fr) is None


def _changed(gens, idx, change):
    gens = list(gens)
    gens[GEN_INDICES.index(idx)] = change(gens[GEN_INDICES.index(idx)])
    return gens


# which spinor list changes, and how
_PERTURBED = [
    ("L", lambda g: _changed(g, (0, 1), lambda m: -m)),
    ("R", lambda g: _changed(g, (2, 3), lambda m: m.scale(2))),
    ("L", lambda g: _changed(g, (3, 7), lambda m: m.scale(3))),
    ("L", lambda g: _changed(g, (0, 2), lambda m: m + Matrix.identity(8))),
    # the trivial representation: every bracket agrees, but the list is
    # dependent, so its structure constants are not defined
    ("R", lambda g: [Matrix.zero(8)] * len(g)),
]


@pytest.mark.parametrize("sig", [EUCLIDEAN, LORENTZIAN])
def test_the_seed_certificate_holds_for_v_l_and_r(sig):
    v, left, right = (_six_basis(sig, k) for k in range(3))
    assert same_structure(v, (left, right))
    fv, fl, fr = map(structure_constants, (v, left, right))
    assert fv == fl == fr


@pytest.mark.parametrize("sig", [EUCLIDEAN, LORENTZIAN])
@pytest.mark.parametrize("kind, change", _PERTURBED)
def test_the_seed_certificate_agrees_with_the_full_arrays(sig, kind, change):
    v, left, right = (_six_basis(sig, k) for k in range(3))
    if kind == "L":
        left = change(left)
    else:
        right = change(right)
    expected = _full_path(v, left, right)
    assert same_structure(v, (left, right)) is expected
    assert expected is False


def _negated_entry(m: Matrix) -> Matrix:
    """``m`` with its first stored entry negated."""
    i = next(i for i, row in enumerate(m.rows) if row)
    j, x = next(iter(m.rows[i].items()))
    return Matrix._of([{**row, j: -x} if k == i else row
                       for k, row in enumerate(m.rows)], m.n)


@pytest.mark.parametrize("sig", [EUCLIDEAN, LORENTZIAN])
def test_one_negated_entry_of_one_image_fails_the_certificate(sig):
    """One entry of one spinor generator negated, in a list that stays
    independent, so only the image brackets can catch it, wherever the
    image list stands."""
    v, left, right = (_six_basis(sig, k) for k in range(3))
    for pos in (0, 13, 27):
        changed = list(left)
        changed[pos] = _negated_entry(changed[pos])
        CoordSolver(changed)
        assert same_structure(v, (changed,)) is False
        assert same_structure(v, (right, changed)) is False


@pytest.mark.parametrize("sig", [EUCLIDEAN, LORENTZIAN])
def test_a_dropped_term_fails_the_certificate(monkeypatch, sig):
    """A solved bracket with one of its terms dropped: the first and the
    last nonzero one the certificate walks.  The images, V itself
    included, no longer match, so the certificate must say False."""
    v, left, right = (_six_basis(sig, k) for k in range(3))
    real = linalg._seed_brackets
    for pick in (0, -1):
        def dropped(gens, solver):
            coeffs = real(gens, solver)
            key = [key for key, terms in coeffs.items() if terms][pick]
            coeffs[key] = dict(list(coeffs[key].items())[1:])
            return coeffs

        monkeypatch.setattr(linalg, "_seed_brackets", dropped)
        for images in ((v,), (left, right), (right,)):
            assert same_structure(v, images) is False, (pick, len(images))
        monkeypatch.undo()
        assert same_structure(v, (v, left, right))


def _plain_mismatches(bases):
    """The oracle of ``structure_mismatches``: every array solved, with no
    certificate, and consecutive arrays compared; or the error raised."""
    try:
        arrays = [structure_constants(b.matrices()) for b in bases]
    except (LinearlyDependent, NotClosed) as err:
        return err
    return tuple(f.first_mismatch(g) for f, g in zip(arrays, arrays[1:]))


def _assert_like_plain(call, bases):
    """``call(bases)`` returns what ``_plain_mismatches`` does, or raises
    the same error with the same text; returns that plain result."""
    expected = _plain_mismatches(bases)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            call(bases)
    else:
        assert call(bases) == expected
    return expected


@pytest.mark.parametrize("sig", [EUCLIDEAN, LORENTZIAN])
@pytest.mark.parametrize("kind, change", _PERTURBED)
def test_a_failed_certificate_names_what_the_full_arrays_name(sig, kind, change):
    """``structure_mismatches`` over V, L and R, and
    ``same_structure_constants`` over V/L, L/R and V/R, return exactly the
    ``first_mismatch`` keys of the plain full arrays, or raise their
    error, when one spinor list is perturbed."""
    bases = [vector_basis(sig), *spinor_bases(sig)]
    k = "VLR".index(kind)
    bases[k] = _make_basis(kind, sig, dict(zip(
        GEN_INDICES, change(bases[k].matrices()))))
    whole = _assert_like_plain(structure_mismatches, bases)
    assert whole != (None, None)

    def report(pair):
        r = same_structure_constants(*pair)
        assert r.equal is (r.first_mismatch is None)
        return (r.first_mismatch,)

    for pair in ((0, 1), (1, 2), (0, 2)):
        _assert_like_plain(report, [bases[i] for i in pair])


def _graded(sig):
    return graded_basis(vector_basis(sig), signature_ops(sig)[0])


def _shifted_v():
    """V in the basis X_a + X_{a+1}, then X_27: brackets are combinations
    of several generators, so a sign slip in ad shows, where in V's own
    basis every bracket is one generator up to sign."""
    v = vector_basis().matrices()
    return [x + y for x, y in zip(v, v[1:])] + [v[-1]]


# each closed list, by name, and the seeds the certificate picks for it;
# in a basis or restriction they are the star X_{ij} of its lowest axis i
_CLOSED = {
    **{name: (lambda sig=sig, k=k: _six_basis(sig, k), range(7))
       for name, (sig, k) in zip(_SIX_IDS, _SIX_BASES)},
    **{f"axis-0 {kind}": (lambda kind=kind: restrict(basis(kind), 0).matrices(),
                          range(6)) for kind in "VLR"},
    **{f"{sig}-g2_part": (lambda sig=sig: _graded(sig).g2_part, range(4))
       for sig in (EUCLIDEAN, LORENTZIAN)},
    "lambdas": (lambda: g2_basis().lambdas, (0, 1, 3, 8)),
    "su3_part": (lambda: g2_basis().su3_part(), (0, 1, 3)),
    "shifted V": (_shifted_v, range(7)),
}


def _naive_orbit_dim(gens, seeds):
    """The orbit grown from the matrices themselves: each new member is
    bracketed with each seed by definition and kept when plain dense
    elimination against the members so far leaves something of it."""
    members = []  # (pivot, flattened row), zero at the pivots before it
    todo = [gens[s] for s in seeds]
    for m in todo:
        row = [x for r in dense(m) for x in r]
        for p, w in members:
            if row[p]:
                f = row[p] * w[p].inverse()
                row = [x - f * y for x, y in zip(row, w)]
        p = next((c for c, x in enumerate(row) if x), None)
        if p is not None:
            members.append((p, row))
            if len(members) == len(gens):
                break
            todo += [naive_bracket(gens[s], m) for s in seeds]
    return len(members)


@pytest.mark.parametrize("name", _CLOSED)
def test_the_certificate_walks_the_pairs_of_seeds_that_generate(name):
    """The pairs walked are exactly those holding a pinned seed; grown
    from the matrices by the naive oracle, the seeds' orbit is the whole
    span, and without the last seed it is not, so each pick was needed.
    Each seed's ad, applied to a vector with every coordinate set, is the
    naive bracket of the seed with that vector's combination."""
    build, seeds = _CLOSED[name]
    gens, seeds = list(build()), list(seeds)
    n, size = len(gens), gens[0].n
    coeffs = linalg._seed_brackets(gens, CoordSolver(gens))
    assert set(coeffs) == {(a, b) for a in range(n) for b in range(a + 1, n)
                           if a in seeds or b in seeds}
    assert _naive_orbit_dim(gens, seeds) == n > _naive_orbit_dim(gens, seeds[:-1])
    v = {b: rational(b + 1) for b in range(n)}
    x = naive_combination([(c, gens[b]) for b, c in v.items()], size)
    for s in seeds:
        ad = linalg._ad(coeffs, s, v)
        assert naive_combination([(c, gens[b]) for b, c in ad.items()],
                                 size) == naive_bracket(gens[s], x), s


def _flipped_lambdas(monkeypatch):
    """The Lambda list of each table entry's sign flipped in turn, as
    ``g2_basis`` builds it with its closure proof patched out."""
    monkeypatch.setattr(subalgebras, "same_structure", lambda gens: True)
    out = []
    for name in ("_FAMILY_HALF", "_FAMILY_ROOT3"):
        table = getattr(subalgebras, name)
        for i, (r, c, k, s) in enumerate(table):
            monkeypatch.setattr(subalgebras, name,
                                table[:i] + ((r, c, k, -s),) + table[i + 1:])
            out.append(g2_basis.__wrapped__().lambdas)
    monkeypatch.undo()
    return out


def _closed_by_the_full_walk(gens):
    try:
        structure_constants(gens)
    except NotClosed:
        return False
    return True


def test_is_closed_agrees_with_the_full_walk(monkeypatch):
    """On the closed lists above, the handed part of each grading, two
    rotations and the 35 Lambda lists with one table sign flipped,
    ``is_closed`` is True exactly when solving every bracket raises no
    NotClosed."""
    v = vector_basis()
    lists = [build() for build, _ in _CLOSED.values()]
    lists += [_graded(sig).right_part + _graded(sig).left_part
              for sig in (EUCLIDEAN, LORENTZIAN)]
    lists += [[v[(0, 1)], v[(1, 2)]], *_flipped_lambdas(monkeypatch)]
    expected = [_closed_by_the_full_walk(gens) for gens in lists]
    assert [is_closed(gens) for gens in lists] == expected
    assert expected.count(True) == len(_CLOSED) == 14
    assert expected.count(False) == 3 + 35


def test_a_generator_list_that_is_not_closed_is_no_certificate():
    """[V_01, V_12] = +-V_02 leaves the span once V_02 carries the
    identity: the certificate raises NotClosed for that bracket, the
    first that the full walk meets too, and ``is_closed`` is False."""
    v, left, right = (_six_basis(EUCLIDEAN, k) for k in range(3))
    broken = _changed(v, (0, 2), lambda m: m + Matrix.identity(8))
    assert not is_closed(broken)
    walked = (0, GEN_INDICES.index((1, 2)))
    for prove in (structure_constants, lambda gens: same_structure(
            gens, (left, right))):
        with pytest.raises(NotClosed) as err:
            prove(broken)
        assert (err.value.a, err.value.b) == walked


def test_the_seed_certificate_rejects_malformed_input():
    v, left, _ = (_six_basis(EUCLIDEAN, k) for k in range(3))
    with pytest.raises(ValueError, match="lengths \\[27\\] for 28 generators"):
        same_structure(v, (left[1:],))


def test_lambda_commutator_stays_in_su3_span_by_rref_oracle():
    g2 = g2_basis()
    bracket = commutator(g2[1], g2[8])
    assert matrix_in_span(list(g2.su3_part()), bracket)


def test_coord_solver_round_trip():
    gens = vector_basis().matrices()
    solver = CoordSolver(gens)
    target = gens[3].scale(rational(2)) - gens[17]
    coeffs = solver.solve(target)
    assert coeffs == {3: rational(2), 17: -ONE}
    assert naive_combination(
        zip(dense_coefficients(coeffs, len(gens)), gens), 8) == target
    outside = Matrix.identity(8)
    assert solver.solve(outside) is None


@given(vectors4, st.lists(fractions, min_size=3, max_size=3),
       st.one_of(st.none(), st.lists(fractions, min_size=4, max_size=4)))
@settings(max_examples=60, deadline=None)
def test_membership_and_solve_agree_with_the_rank_oracle(vecs, coeffs, extra):
    vecs = _exact(vecs)
    target = [ZERO] * 4
    for c, v in zip(coeffs, vecs):
        target = [t + rational(c) * x for t, x in zip(target, v)]
    if extra is not None:
        target = [t + x for t, x in zip(target, _exact([extra])[0])]
    inside = in_span(vecs, target)
    span = Subspace.from_vectors(map(_sparse, vecs), 4)
    assert span.contains_matrix(_as_matrix(target)) == inside
    if naive_rank(vecs) < len(vecs):
        with pytest.raises(LinearlyDependent):
            CoordSolver(map(_as_matrix, vecs))
        return
    solved = CoordSolver(map(_as_matrix, vecs)).solve(_as_matrix(target))
    assert (solved is not None) == inside
    if inside:
        rebuilt = [ZERO] * 4
        for c, v in zip(dense_coefficients(solved, len(vecs)), vecs):
            rebuilt = [r + c * x for r, x in zip(rebuilt, v)]
        assert rebuilt == target


@given(vectors4, vectors4)
@settings(max_examples=60, deadline=None)
def test_intersection_dimension_matches_the_rank_oracle(a, b):
    a, b = _exact(a), _exact(b)
    meet = Subspace.from_vectors(map(_sparse, a), 4).intersection(
        Subspace.from_vectors(map(_sparse, b), 4))
    assert meet.dim == naive_rank(a) + naive_rank(b) - naive_rank(a + b)
    assert all(in_span(a, _dense(v, 4)) and in_span(b, _dense(v, 4))
               for v in meet.rows)


def test_structure_calls_take_any_iterable():
    """Generators, and image lists, given as one-shot iterators."""
    gens = vector_basis().matrices()
    assert structure_constants(iter(gens)) == structure_constants(gens)
    assert same_structure(iter(gens), [iter(spinor_bases()[0].matrices())])
    assert real_span(iter(gens)) == real_span(gens)


def test_subspace_intersection_is_idempotent():
    gens = vector_basis().matrices()[:5]
    s = Subspace.from_matrices(gens)
    assert s.intersection(s) == s
    assert Subspace.from_matrices(m for m in gens) == s


def test_det_matches_cofactor_oracle():
    from triality.subalgebras import su3_transform
    u = su3_transform()
    assert det(u) == cofactor_det(u)
    assert det(Matrix.identity(5)) == ONE
    assert det(Matrix.zero(3)) == ZERO
    # rows inserted with pivots 2, 1, 0: three inversions, an odd order
    assert det(Matrix([[0, 0, 2], [0, 3, 0], [5, 0, 0]])) == rational(-30)


def test_is_closed():
    v = vector_basis()
    assert is_closed(v.matrices())
    assert not is_closed([v[(0, 1)], v[(1, 2)]])
