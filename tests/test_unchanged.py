"""Nothing a call is given, or the caches hold, changes under it.

``Matrix`` rows are plain dicts, and the interned bases hand every caller
the same ``Matrix`` objects, so a call that writes into a row it was
given would corrupt every later reader.  ``oracles.fingerprint`` takes
each object's value before and after: the objects the eight caches hand
out, across the warm library requests and whole suite runs, and the
arguments of each public function that takes matrices or vectors, on
interned and on drawn inputs.
"""

import contextlib
import importlib.util
import io
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fingerprint
from test_matrix import sparse_matrix, units
from triality import cli
from triality._record import Record
from triality.checks import FAULT_H_SIGN, run_suite
from triality.clifford import (EUCLIDEAN, LORENTZIAN, chiral_transform,
                               cl7_basis, cl8_basis, cl17_basis, dirac_gammas)
from triality.field import HALF, I, ONE
from triality.linalg import (CoordSolver, Subspace, det, is_closed,
                             kernel_basis, rref, same_structure, stacked_solve,
                             structure_constants)
from triality.matrix import (Matrix, add_scaled, anticommutator, combination,
                             commutator, common_size, is_combination, kron,
                             trace_product)
from triality.outer import (apply_outer, graded_basis, killing_form,
                            killing_trace, outer_conj, outer_h, outer_k,
                            quartet_terms, s3_closure, signature_ops, unpack)
from triality.representations import (real_flatten, real_span, same_span,
                                      same_structure_constants, spinor_bases,
                                      structure_mismatches, vector_basis)
from triality.subalgebras import (g2_basis, intersect, intersect_pair,
                                  lambda_gram, restrict, su3_embedding)

_spec = importlib.util.spec_from_file_location(
    "bench_workloads",
    Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _interned():
    """What each of the eight caches hands out, by the call that asks."""
    return {
        "dirac_gammas": dirac_gammas(), "cl7_basis": cl7_basis(),
        "cl8_basis": cl8_basis(), "chiral_transform": chiral_transform(),
        "cl17_basis": cl17_basis(), "cl17_basis chiral": cl17_basis(chiral=True),
        **{f"vector_basis {sig}": vector_basis(sig) for sig in (EUCLIDEAN, LORENTZIAN)},
        **{f"spinor_bases {sig}": spinor_bases(sig) for sig in (EUCLIDEAN, LORENTZIAN)},
        "g2_basis": g2_basis(),
    }


def test_warm_requests_and_suites_leave_the_interned_objects_alone():
    """The 70 library requests of the benchmark, then ``run_suite("all")``
    with and without the h-sign fault: every cache still hands out the
    same objects, with the same values."""
    before = _interned()
    prints = {name: fingerprint(obj) for name, obj in before.items()}
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in workloads.LIBRARY_REQUESTS:
            assert cli.main(argv) == 0
    assert not run_suite("all").failed
    assert run_suite("all", FAULT_H_SIGN).failed
    after = _interned()
    assert [name for name in before if after[name] is not before[name]] == []
    assert [name for name, obj in before.items()
            if fingerprint(obj) != prints[name]] == []


def _containers(obj):
    """The types of the containers reachable from ``obj``, leaving out
    what a ``Matrix`` or a scalar holds."""
    if isinstance(obj, Record):
        items = [getattr(obj, name) for name in obj.__slots__]
    elif isinstance(obj, Mapping):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple, set)):
        items = list(obj)
    else:
        return set()
    kinds = set() if isinstance(obj, Record) else {type(obj)}
    return kinds.union(*map(_containers, items))


def test_the_interned_objects_and_the_records_hold_frozen_containers(
        full_report):
    """A cache hands out, and a report holds, only tuples and read-only
    mappings, so no caller can rebind what another reads; an S3 closure
    holds tuples beside its dict of element orders."""
    assert _containers(tuple(_interned().values())) == {tuple, MappingProxyType}
    assert _containers(full_report) == {tuple}
    assert _containers(s3_closure(signature_ops(EUCLIDEAN))) == {tuple, dict}


def test_a_solver_and_a_subspace_hold_their_rows_in_tuples():
    gens = vector_basis(EUCLIDEAN).matrices()
    assert _containers(CoordSolver(gens)) == {tuple, dict}
    assert _containers(Subspace.from_matrices(gens)) == {tuple, dict}


def _leaves_alone(call, *args):
    """``call(*args)``, asserting that no argument's value changed."""
    prints = fingerprint(args)
    result = call(*args)
    assert fingerprint(args) == prints, getattr(call, "__name__", call)
    return result


def _add_scaled_to_a_new_row(c, w):
    """``add_scaled`` writes into its first argument, by design."""
    return add_scaled({}, c, w)


def _matrix_calls(a, b, c):
    """The matrix-layer calls on two n x n matrices and a nonzero scalar."""
    n = a.n
    return [
        (Matrix.__matmul__, a, b), (Matrix.__add__, a, b), (Matrix.__sub__, a, b),
        (Matrix.__neg__, a), (Matrix.scale, a, c), (Matrix.power, a, 2),
        (Matrix.transpose, a), (Matrix.conj, a), (Matrix.dagger, a),
        (Matrix.block, a, 1, 1, n - 1), (Matrix.vector, a), (Matrix.__eq__, a, b),
        (str, a), (commutator, a, b), (anticommutator, a, b),
        (trace_product, a, b), (kron, a, b), (common_size, [a, b]),
        (combination, [((0, c), (1, ONE)), ((0, ONE),)], [a, b], n),
        (is_combination, [(a, [(1, c)])], [a, b]),
        (is_combination, [(a, [(0, ONE)]), (b, [(1, c)])], [a, b]),
        (_add_scaled_to_a_new_row, c, a.rows[0]), (det, a),
        (rref, list(a.rows)), (kernel_basis, list(a.rows), n),
        (Subspace.from_vectors, list(a.rows), n),
        (stacked_solve, list(a.rows), list(b.rows)),
        (real_flatten, a),
    ]


def _coefficient_images(graded, op):
    """Check 12's product: the graded coefficient vectors themselves as the
    rows of one matrix, times the unpacked operator."""
    return Matrix._of(graded.coeff_vectors, 28) @ unpack(op)


def test_public_calls_leave_their_interned_arguments_alone():
    """Each public function that takes matrices or vectors, on the
    interned bases and the objects built from them."""
    v, vl = vector_basis(EUCLIDEAN), vector_basis(LORENTZIAN)
    left, right = spinor_bases(EUCLIDEAN)
    left_l = spinor_bases(LORENTZIAN)[0]
    g2 = g2_basis()
    a, b = v[(0, 1)], v[(1, 2)]
    gens = v.matrices()
    solver = CoordSolver(gens)
    h = outer_h()
    graded = graded_basis(v, h)
    rv, rl = restrict(v, 0), restrict(left, 0)
    span = Subspace.from_matrices(rv.matrices())
    calls = _matrix_calls(a, b, HALF + I) + _matrix_calls(a, left[(0, 1)], -ONE) + [
        (Subspace.from_matrices, gens), (Subspace.intersection, span, rl.span()),
        (Subspace.contains_matrix, span, a), (CoordSolver, gens),
        (CoordSolver.solve, solver, commutator(a, b)),
        (structure_constants, gens), (is_closed, graded.g2_part),
        (same_structure, gens, [left.matrices()]),
        (unpack, h), (quartet_terms, h.core), (apply_outer, h, v),
        (apply_outer, outer_k(), left), (apply_outer, outer_conj(), left_l),
        (graded_basis, vl, signature_ops(LORENTZIAN)[0]),
        (killing_form, a, b), (killing_trace, gens),
        (s3_closure, signature_ops(EUCLIDEAN)),
        (_coefficient_images, graded, h),
        (restrict, v, 0), (intersect_pair, rv, rl), (intersect, [gens, g2.lambdas]),
        (lambda_gram, g2), (su3_embedding, g2),
        (same_span, v, left), (same_structure_constants, v, left),
        (structure_mismatches, (v, left, right)), (real_span, gens),
    ]
    for call, *args in calls:
        _leaves_alone(call, *args)


@given(sparse_matrix(4, entries=8, values=units), sparse_matrix(4, entries=8, values=units),
       st.sampled_from([ONE, -ONE, I, HALF + I]))
@settings(max_examples=25, deadline=None)
def test_matrix_calls_leave_drawn_arguments_alone(a, b, c):
    for call, *args in _matrix_calls(a, b, c):
        _leaves_alone(call, *args)
