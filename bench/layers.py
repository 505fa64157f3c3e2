"""Per-layer timings: medians of timed calls into each module's public API.

Usage: python3 bench/layers.py

A cold ``run_suite("all")`` runs first, before any other call fills a
cache.  Then each layer's public functions are timed in batches; a metric
is the median batch time per call.  ``linalg.brackets_solved`` counts the
``CoordSolver.solve`` calls per ``structure_constants`` call (nine calls,
three bases), through a counting wrapper installed at run time; the count
of each call goes out too, so the caller can check that they repeat.
Prints one JSON object.
"""

import json
import statistics
import sys
import time
from fractions import Fraction as F

from triality import (EUCLIDEAN, LORENTZIAN, CoordSolver, Subspace,
                      apply_outer, cl7_basis, cl8_basis, cl17_basis,
                      commutator, from_parts, g2_basis, graded_basis,
                      intersect_pair, outer_h, outer_k, outer_t, real_span,
                      restrict, s3_closure, spinor_bases, structure_constants,
                      su3_embedding, vector_basis)
from triality import clifford, linalg
from triality.checks import run_suite
from triality.emit import matrix_from_json, matrix_to_json, matrix_to_latex
from triality.subalgebras import su3_transform

from workloads import count_subchecks


def timed(fn, batches=7, per_batch=1, before=None):
    """Median over batches of the per-call time of ``fn()``, in seconds."""
    samples = []
    for _ in range(batches):
        if before:
            before()
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((time.perf_counter() - t0) / per_batch)
    return statistics.median(samples)


class SolveCounter:
    """Counts ``CoordSolver.solve`` calls while installed."""

    def __init__(self):
        self.calls = 0
        self._solve = linalg.CoordSolver.solve

    def __enter__(self):
        solve = self._solve

        def counted(solver, m):
            self.calls += 1
            return solve(solver, m)

        linalg.CoordSolver.solve = counted
        return self

    def __exit__(self, *exc):
        linalg.CoordSolver.solve = self._solve


def clear_ladders():
    for fn in (clifford.dirac_gammas, clifford.cl7_basis, clifford.cl8_basis,
               clifford.chiral_transform, clifford.cl17_basis):
        fn.cache_clear()


def ladders():
    cl7_basis()
    cl8_basis()
    cl17_basis()
    cl17_basis(chiral=True)


def main():
    m = {}
    t0 = time.perf_counter()
    report = run_suite("all")
    m["checks.run_suite_s"] = time.perf_counter() - t0
    m["checks.subchecks_total"] = count_subchecks(report)

    # every coordinate nonzero, with the small denominators the bases use
    dense = from_parts(re=(1, F(1, 2), -1, F(3, 2)), im=(2, F(-1, 2), 1, -3))
    dense2 = from_parts(re=(F(-1, 2), 1, F(1, 2), 2), im=(-1, 3, F(-3, 2), 1))
    sparse = from_parts(re=(0, F(1, 2), 0, 0))
    sparse2 = from_parts(im=(0, 0, F(-1, 3), 0))
    m["field.mul_dense_us"] = timed(lambda: dense * dense2, 15, 100) * 1e6
    m["field.mul_sparse_us"] = timed(lambda: sparse * sparse2, 15, 400) * 1e6
    m["field.add_us"] = timed(lambda: dense + dense2, 15, 400) * 1e6
    m["field.inverse_us"] = timed(dense.inverse, 15, 20) * 1e6

    v = vector_basis(EUCLIDEAN).matrices()
    left = spinor_bases(EUCLIDEAN)[0].matrices()
    left17 = spinor_bases(LORENTZIAN)[0].matrices()
    gammas = cl8_basis().gammas
    u = su3_transform()
    ud = u.dagger()
    m["matrix.matmul_vector_us"] = timed(lambda: v[0] @ v[1], 15, 200) * 1e6
    m["matrix.matmul_spinor_us"] = timed(lambda: left[0] @ left[1], 15, 50) * 1e6
    m["matrix.commutator_spinor17_us"] = timed(
        lambda: commutator(left17[0], left17[5]), 15, 20) * 1e6
    m["matrix.matmul_gamma16_us"] = timed(
        lambda: gammas[1] @ gammas[2], 15, 20) * 1e6
    m["matrix.matmul_dense7_us"] = timed(lambda: u @ ud, 15, 10) * 1e6

    solve_counts = {}
    with SolveCounter() as counter:
        for name, gens in (("vector", v), ("spinor", left),
                           ("spinor17", left17)):
            counts = solve_counts[name] = []

            def call():
                before = counter.calls
                structure_constants(gens)
                counts.append(counter.calls - before)

            m[f"linalg.structure_constants_{name}_ms"] = timed(call, 3) * 1e3
    m["linalg.brackets_solved"] = counter.calls / 9
    m["linalg.coord_solver_build_ms"] = timed(lambda: CoordSolver(left), 7) * 1e3
    solver = CoordSolver(left)
    brackets = [commutator(left[a], left[b]) for a in range(28)
                for b in range(a + 1, 28)][::19]
    m["linalg.solve_us"] = timed(
        lambda: [solver.solve(x) for x in brackets], 15, 5) / len(brackets) * 1e6
    m["linalg.span_ms"] = timed(lambda: Subspace.from_matrices(left), 7) * 1e3
    rv, rl = restrict(vector_basis(EUCLIDEAN), 0), restrict(spinor_bases(EUCLIDEAN)[0], 0)
    span_v, span_l = rv.span(), rl.span()
    m["linalg.intersection_ms"] = timed(lambda: span_v.intersection(span_l), 7) * 1e3

    m["clifford.ladders_cold_ms"] = timed(ladders, 7, before=clear_ladders) * 1e3
    bases = spinor_bases.__wrapped__
    m["representations.spinor_bases_euclid_ms"] = timed(
        lambda: bases(EUCLIDEAN), 7) * 1e3
    m["representations.spinor_bases_lorentz_ms"] = timed(
        lambda: bases(LORENTZIAN), 7) * 1e3
    m["representations.real_span_ms"] = timed(lambda: real_span(left17), 5) * 1e3

    vb, lb17 = vector_basis(EUCLIDEAN), spinor_bases(LORENTZIAN)[0]
    m["outer.apply_outer_hv_ms"] = timed(lambda: apply_outer(outer_h(), vb), 7) * 1e3
    m["outer.apply_outer_tl17_ms"] = timed(
        lambda: apply_outer(outer_t(), lb17), 7) * 1e3
    m["outer.graded_basis_ms"] = timed(lambda: graded_basis(vb, outer_h()), 7) * 1e3
    m["outer.s3_closure_ms"] = timed(
        lambda: s3_closure([outer_h(), outer_k()]), 7) * 1e3

    m["subalgebras.intersect_pair_ms"] = timed(lambda: intersect_pair(rv, rl), 7) * 1e3
    m["subalgebras.g2_basis_cold_ms"] = timed(g2_basis.__wrapped__, 7) * 1e3
    g2 = g2_basis()
    m["subalgebras.su3_embedding_ms"] = timed(lambda: su3_embedding(g2), 7) * 1e3

    as_json = [matrix_to_json(x) for x in left]
    m["emit.matrix_to_json_ms"] = timed(
        lambda: [matrix_to_json(x) for x in left], 7) * 1e3
    m["emit.matrix_from_json_ms"] = timed(
        lambda: [matrix_from_json(x) for x in as_json], 7) * 1e3
    m["emit.matrix_to_latex_ms"] = timed(
        lambda: [matrix_to_latex(x) for x in left], 7) * 1e3
    json.dump({"metrics": m, "solve_counts": solve_counts}, sys.stdout)


if __name__ == "__main__":
    main()
