"""Acceptance gate: one test per criterion, every equality zero-tolerance.

Each test re-asserts the core claims directly against the library and
cross-checks the corresponding entry of the verification suite, then
prints its pass line (visible with ``pytest -s``; under plain ``pytest -v``
each criterion appears as its own test row).
"""

import json
import subprocess
import sys

from oracles import coefficient_rows, dense_coefficients, su3_block
from triality.clifford import (EUCLIDEAN, LORENTZIAN, cl8_basis, cl17_basis,
                               volume_element)
from triality.field import MINUS_ONE, ONE, ZERO, rational
from triality.linalg import Subspace, det, is_closed
from triality.matrix import Matrix, commutator
from triality.outer import (apply_outer, diagonalize, graded_basis,
                            killing_form, killing_trace, outer_conj, outer_h,
                            outer_k, outer_t, s3_closure, unpack)
from triality.representations import (GEN_INDICES, P_MATRIX, basis, same_span,
                                      same_structure_constants, spinor_bases,
                                      vector_basis)
from triality.subalgebras import (BLOCK_FACTOR, g2_basis, gell_mann,
                                  intersect, intersect_pair, lambda_gram,
                                  restrict, su3_embedding, su3_transform)

ETA = Matrix.diag((ONE,) + (MINUS_ONE,) * 7)


def _criterion(n, results_by_id, check_id, message):
    assert results_by_id[check_id].status == "pass", results_by_id[check_id]
    print(f"PASS criterion {n:02d}: {message}")


def test_criterion_01_clifford_relations(results_by_id):
    for sig_basis in (cl8_basis(), cl17_basis(), cl17_basis(chiral=True)):
        assert sig_basis.satisfies_clifford()
    _criterion(1, results_by_id, "01-clifford-relations",
               "anticommutators equal twice the metric, exactly")


def test_criterion_02_volume_elements(results_by_id):
    assert volume_element(cl8_basis()).squares_to_plus_identity
    assert volume_element(cl8_basis()).anticommutes_with_all
    assert volume_element(cl17_basis()).squares_to_minus_identity
    _criterion(2, results_by_id, "02-volume-elements",
               "euclidean omega^2=+I and anticommutes; lorentzian omega^2=-I")


def test_criterion_03_reality_and_span(results_by_id):
    for kind in "VLR":
        b = basis(kind, EUCLIDEAN)
        assert all(b[i].is_real and b[i].is_antisymmetric
                   for i in GEN_INDICES)
    assert same_span(basis("V"), basis("L")).equal
    assert same_span(basis("V"), basis("R")).equal
    _criterion(3, results_by_id, "03-reality-and-shared-span",
               "84 real antisymmetric generators spanning one 28-dim space")


def test_criterion_04_structure_constants(results_by_id):
    for sig in (EUCLIDEAN, LORENTZIAN):
        assert same_structure_constants(basis("V", sig), basis("L", sig)).equal
        assert same_structure_constants(basis("L", sig), basis("R", sig)).equal
    _criterion(4, results_by_id, "04-structure-constants-match",
               "V, L, R share structure constants in both signatures")


def test_criterion_05_triality_cycling(results_by_id):
    for sig, op in ((EUCLIDEAN, outer_h()), (LORENTZIAN, outer_t())):
        current = vector_basis(sig)
        for expected_kind in "LRV":
            current = apply_outer(op, current)
            target = basis(expected_kind, sig)
            assert all(current[i] == target[i] for i in GEN_INDICES)
    _criterion(5, results_by_id, "05-triality-cycling",
               "H and T step exactly through V -> L -> R -> V")


def test_criterion_06_duality(results_by_id):
    left, right = spinor_bases(EUCLIDEAN)
    mapped = apply_outer(outer_k(), left)
    assert all(P_MATRIX @ mapped[i] @ P_MATRIX.T == right[i]
               for i in GEN_INDICES)
    left_l, right_l = spinor_bases(LORENTZIAN)
    mapped_l = apply_outer(outer_conj(), left_l)
    assert all(mapped_l[i] == right_l[i] for i in GEN_INDICES)
    _criterion(6, results_by_id, "06-duality-maps",
               "K lands on R after the P cleanup; conjugation maps L to R")


def test_criterion_07_s3(results_by_id):
    euclid = s3_closure([outer_h(), outer_k()])
    lorentz = s3_closure([outer_t(), outer_conj()])
    assert len(euclid.elements) == 6 and euclid.is_s3
    assert len(lorentz.elements) == 6 and lorentz.is_s3
    _criterion(7, results_by_id, "07-s3-closure",
               "both operator pairs close into exactly six elements "
               "(raw cores, no P cleanup needed)")


def test_criterion_08_operator_identities(results_by_id):
    t = outer_t().core
    assert t.power(2) == t.conj()
    assert t.power(2) @ t == Matrix.identity(4)
    assert t.is_symmetric
    b = diagonalize("T").change_of_basis
    assert b.is_real and b.is_orthogonal
    u = diagonalize("H").change_of_basis
    k_prime = u.dagger() @ outer_k().core @ u
    assert k_prime == Matrix(((1, 0, 0, 0), (0, 1, 0, 0),
                              (0, 0, 0, 1), (0, 0, 1, 0)))
    _criterion(8, results_by_id, "08-operator-identities",
               "T^2=T*=T^-1, T symmetric, B real orthogonal, U+KU=K'")


def test_criterion_09_intersection(results_by_id):
    rv = restrict(vector_basis(EUCLIDEAN), 0)
    rl = restrict(basis("L", EUCLIDEAN), 0)
    rr = restrict(basis("R", EUCLIDEAN), 0)
    system = intersect_pair(rv, rl)
    assert system.subspace.dim == 14
    assert system.rank == 28 and system.unknowns == 42
    assert {str(c) for c in system.b_constraints()} == {
        "b12 = b47 +b56", "b13 = -b46 +b57", "b14 = -b27 +b36",
        "b15 = -b26 +b37", "b16 = b25 -b34", "b17 = b24 +b35",
        "b23 = b45 +b67"}
    assert intersect_pair(rv, rr).subspace == system.subspace
    assert intersect_pair(rl, rr).subspace == system.subspace
    assert intersect([rv.matrices(), rl.matrices(),
                      rr.matrices()]) == system.subspace
    _criterion(9, results_by_id, "09-spin7-intersection",
               "14 free dimensions, rank 28, all intersections coincide")


def test_criterion_10_g2(results_by_id):
    g2 = g2_basis()           # closure is verified on construction
    system = intersect_pair(restrict(vector_basis(EUCLIDEAN), 0),
                            restrict(basis("L", EUCLIDEAN), 0))
    assert all(system.subspace.contains_matrix(lam) for lam in g2.lambdas)
    gram = lambda_gram(g2)
    assert all(gram[a, b] == ZERO
               for a in range(14) for b in range(14) if a != b)
    assert is_closed(g2.su3_part())
    swapped = g2.swapped()
    assert all(commutator(swapped[k], swapped[k + 7]).is_zero
               for k in range(7))
    _criterion(10, results_by_id, "10-g2-lambda-basis",
               "Lambdas close, live in the intersection, orthogonal, "
               "su(3) sub-family closes, swap pairing commutes")


def test_criterion_11_su3_embedding(results_by_id):
    emb = su3_embedding(g2_basis())
    assert su3_transform().is_unitary and det(su3_transform()) == ONE
    for k, lam in enumerate(gell_mann(), start=1):
        assert emb.conjugated[k - 1] == su3_block(lam).scale(BLOCK_FACTOR)
    _criterion(11, results_by_id, "11-su3-embedding",
               "U Lambda_k U+ hits diag(0, l_k, -l_k^T) blocks exactly "
               "(unit factor -i/2)")


def test_criterion_12_grading(results_by_id):
    for sig, op in ((EUCLIDEAN, outer_h()), (LORENTZIAN, outer_t())):
        graded = graded_basis(vector_basis(sig), op)
        vectors = graded.coeff_vectors
        images = (coefficient_rows(vectors) @ unpack(op)).rows
        for pos, (vec, image) in enumerate(zip(vectors, images)):
            lam = graded.eigenvalue_of(pos)
            out = dense_coefficients(image, 28)
            assert out == [lam * x for x in dense_coefficients(vec, 28)]
        assert is_closed(graded.g2_part)
        assert not is_closed(graded.right_part + graded.left_part)
        span_g2 = Subspace.from_matrices(graded.g2_part)
        span_r = Subspace.from_matrices(graded.right_part)
        span_l = Subspace.from_matrices(graded.left_part)
        for i in range(7):
            for j in range(7):
                if i < j:
                    assert span_l.contains_matrix(commutator(
                        graded.right_part[i], graded.right_part[j]))
                    assert span_r.contains_matrix(commutator(
                        graded.left_part[i], graded.left_part[j]))
                assert span_g2.contains_matrix(commutator(
                    graded.right_part[i], graded.left_part[j]))
        gens = graded.all_generators()
        for r in graded.right_part:
            commuting = [l for l in graded.left_part
                         if commutator(r, l).is_zero]
            assert len(commuting) == 1
            partners = [g for g in gens if killing_form(r, g) != ZERO]
            assert partners == commuting
    _criterion(12, results_by_id, "12-triality-grading",
               "eigenvalue labels, bracket grading, closure pattern, "
               "and sibling pairing all exact in both signatures")


def test_criterion_13_killing(results_by_id):
    for kind in "VLR":
        assert killing_trace(basis(kind, EUCLIDEAN).matrices()) == rational(-28)
    for sig, op in ((EUCLIDEAN, outer_h()), (LORENTZIAN, outer_t())):
        graded = graded_basis(vector_basis(sig), op)
        assert killing_trace(graded.all_generators()) == rational(-14)
        assert all(killing_form(x, x) == ZERO
                   for x in graded.right_part + graded.left_part)
    _criterion(13, results_by_id, "13-killing-traces",
               "-28 on the euclidean originals, -14 on graded bases, "
               "handed generators null")


def test_criterion_14_form_preservation(results_by_id):
    graded = graded_basis(vector_basis(EUCLIDEAN), outer_h())
    for x in graded.all_generators():
        assert x.is_antisymmetric
        assert (x.dagger() @ ETA + ETA @ x).is_zero
    graded_l = graded_basis(vector_basis(LORENTZIAN), outer_t())
    for x in graded_l.all_generators():
        assert (x.T @ ETA + ETA @ x).is_zero
    _criterion(14, results_by_id, "14-form-preservation",
               "graded generators preserve the bilinear forms exactly")


def test_criterion_15_hermiticity_split(results_by_id):
    for b in spinor_bases(LORENTZIAN):
        for (i, j) in GEN_INDICES:
            if i == 0:
                assert b[(i, j)].is_hermitian
            else:
                assert b[(i, j)].is_antihermitian
    _criterion(15, results_by_id, "15-hermiticity-split",
               "boosts Hermitian, rotations anti-Hermitian")


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "triality.cli", *args],
                          capture_output=True, text=True)


def test_criterion_16_tooling(results_by_id):
    first = _cli("verify", "--suite", "all", "--format", "json")
    second = _cli("verify", "--suite", "all", "--format", "json")
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical across two runs
    injected = _cli("verify", "--suite", "all", "--format", "json",
                    "--inject-fault", "h-sign")
    assert injected.returncode == 1
    failed = [r["check_id"] for r in json.loads(injected.stdout)["results"]
              if r["status"] == "fail"]
    assert failed == ["05-triality-cycling"]
    _criterion(16, results_by_id, "16-tooling-determinism",
               "byte-identical verify output; fault flips exactly one check")
