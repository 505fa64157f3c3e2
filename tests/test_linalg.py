"""RREF, kernels, subspaces, and the structure-constant solver."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cofactor_det, in_span, matrix_in_span, naive_rank
from triality.clifford import EUCLIDEAN
from triality.errors import LinearlyDependent, NotClosed
from triality.field import ONE, ZERO, ExactScalar, rational
from triality.linalg import (CoordSolver, Subspace, det, is_closed,
                             kernel_basis, rref, structure_constants)
from triality.matrix import Matrix, commutator
from triality.representations import spinor_bases, vector_basis
from triality.subalgebras import g2_basis, intersect_pair, restrict

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# short lists of 4-vectors: small enough that spans meet and miss often
vectors4 = st.lists(st.lists(fractions, min_size=4, max_size=4),
                    min_size=1, max_size=3)


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


def test_vector_basis_structure_constants_close_and_antisymmetric():
    gens = vector_basis().matrices()
    f = structure_constants(gens)
    assert f.size == 28
    for (a, b, c), val in f.entries.items():
        assert f[(b, a, c)] == -val


def test_structure_constants_rejects_dependent_input():
    v = vector_basis()
    gens = [v[(0, 1)], v[(0, 2)], v[(0, 1)] + v[(0, 2)]]
    with pytest.raises(LinearlyDependent):
        structure_constants(gens)


def test_not_closed_reports_the_offending_pair():
    v = vector_basis()
    with pytest.raises(NotClosed) as err:
        structure_constants([v[(0, 1)], v[(1, 2)]])
    assert (err.value.a, err.value.b) == (0, 1)
    assert not err.value.residual.is_zero


def test_lambda_commutator_stays_in_su3_span_by_rref_oracle():
    g2 = g2_basis()
    bracket = commutator(g2[1], g2[8])
    assert matrix_in_span(list(g2.su3_part()), bracket)


def test_coord_solver_round_trip():
    gens = vector_basis().matrices()
    solver = CoordSolver(gens)
    target = gens[3].scale(rational(2)) - gens[17]
    coeffs = solver.solve(target)
    rebuilt = Matrix.zero(8)
    for c, g in zip(coeffs, gens):
        if c:
            rebuilt = rebuilt + g.scale(c)
    assert rebuilt == target
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
    assert span.contains(_sparse(target)) == inside
    if naive_rank(vecs) < len(vecs):
        with pytest.raises(LinearlyDependent):
            CoordSolver(map(_as_matrix, vecs))
        return
    solved = CoordSolver(map(_as_matrix, vecs)).solve(_as_matrix(target))
    assert (solved is not None) == inside
    if inside:
        rebuilt = [ZERO] * 4
        for c, v in zip(solved, vecs):
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


def _constructions(monkeypatch, fn):
    """The result of ``fn()`` and the number of scalars it built: every
    internal result passes once through ``ExactScalar._of``, and the
    validated constructor does not route through it."""
    built = 0
    init, wrap = ExactScalar.__init__, ExactScalar._of

    def counted_init(self, coords):
        nonlocal built
        built += 1
        init(self, coords)

    def counted_wrap(cls, den, nums):
        nonlocal built
        built += 1
        return wrap(den, nums)

    monkeypatch.setattr(ExactScalar, "__init__", counted_init)
    monkeypatch.setattr(ExactScalar, "_of", classmethod(counted_wrap))
    try:
        return fn(), built
    finally:
        monkeypatch.undo()


# The op-count ratchets below are upper bounds only: a change may lower a
# count, and one that raises it must say why.

def test_euclidean_left_solves_stay_within_their_op_count(monkeypatch):
    """Solving all 378 brackets of L(8,0) builds at most 4,872 scalars."""
    gens = spinor_bases(EUCLIDEAN)[0].matrices()
    solver = CoordSolver(gens)
    brackets = [commutator(gens[a], gens[b])
                for a in range(28) for b in range(a + 1, 28)]
    solved, built = _constructions(
        monkeypatch, lambda: [solver.solve(x) for x in brackets])
    assert len(brackets) == 378 and None not in solved
    assert built <= 4872


def test_left_brackets_stay_within_their_op_count(monkeypatch):
    """The 378 commutators of L(8,0) build at most 7,392 scalars."""
    gens = spinor_bases(EUCLIDEAN)[0].matrices()
    brackets, built = _constructions(monkeypatch, lambda: [
        commutator(gens[a], gens[b]) for a in range(28) for b in range(a + 1, 28)])
    assert len(brackets) == 378 and built <= 7392


def test_axis0_restrictions_meet_within_their_op_counts(monkeypatch):
    """The Euclidean V and L restrictions meet in at most 868 built
    scalars by ``intersect_pair`` and 270 by ``Subspace.intersection``."""
    rv = restrict(vector_basis(EUCLIDEAN), 0)
    rl = restrict(spinor_bases(EUCLIDEAN)[0], 0)
    system, built = _constructions(monkeypatch, lambda: intersect_pair(rv, rl))
    assert system.subspace.dim == 14 and built <= 868
    span_v, span_l = rv.span(), rl.span()
    meet, built = _constructions(monkeypatch, lambda: span_v.intersection(span_l))
    assert meet == system.subspace and built <= 270


_COLD_SUITE = """
import sys
import pytest
import triality
from test_linalg import _constructions
from triality.checks import run_suite
report, built = _constructions(pytest.MonkeyPatch(),
                               lambda: run_suite(sys.argv[1]))
assert not report.failed
print(built)
"""


@pytest.mark.parametrize("suite", ["all", "euclidean", "lorentzian"])
def test_cold_suite_stays_within_its_op_count(suite):
    """A cold ``run_suite(suite)`` in a new interpreter builds at most
    119,458 scalars, whichever signatures the suite runs."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    out = subprocess.run([sys.executable, "-c", _COLD_SUITE, suite], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) <= 119458


def test_subspace_intersection_is_idempotent():
    gens = vector_basis().matrices()[:5]
    s = Subspace.from_matrices(gens)
    assert s.intersection(s) == s


def test_det_matches_cofactor_oracle():
    from triality.subalgebras import su3_transform
    u = su3_transform()
    assert det(u) == cofactor_det(u)
    assert det(Matrix.identity(5)) == ONE
    assert det(Matrix.zero(3)) == ZERO


def test_is_closed():
    v = vector_basis()
    assert is_closed(v.matrices())
    assert not is_closed([v[(0, 1)], v[(1, 2)]])
