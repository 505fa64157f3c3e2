"""The machine-verification suite: every claim as an exact pass/fail check.

Each acceptance criterion owns exactly one check id (01..16); check 17 is
the supplementary norm-convention report for the Lambda family.  Checks
with content in both signatures run the portion selected by the suite.
All comparisons are zero-tolerance; a check either holds exactly or it
fails with a counterexample in its detail string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from . import __version__
from .clifford import EUCLIDEAN, LORENTZIAN, cl8_basis, cl17_basis, volume_element
from .errors import TrialityError
from .field import HALF, MINUS_ONE, OMEGA, OMEGA_BAR, ONE, ZERO, rational
from .linalg import Subspace, det, is_closed
from .matrix import Matrix, commutator
from .outer import (OuterOp, apply_outer, diagonalize, graded_basis,
                    killing_form, killing_trace, outer_conj, outer_k,
                    outer_t, s3_closure, signature_ops, unpack)
from .representations import (GEN_INDICES, P_MATRIX, same_span,
                              same_structure_constants, spinor_bases,
                              vector_basis)
from .subalgebras import (g2_basis, intersect, intersect_pair, lambda_gram,
                          restrict, su3_embedding, su3_transform)

SCHEMA = "triality-report/1"
SUITES = ("euclidean", "lorentzian", "all")

# The only supported fault injection: flip one sign in the H core used by
# the triality-cycling check.  Scoped to that single check so the negative
# control flips exactly one result.
FAULT_H_SIGN = "h-sign"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    claim: str
    status: str          # "pass" | "fail" | "reported"
    detail: str

    def to_json(self) -> dict:
        return {"check_id": self.check_id, "claim": self.claim,
                "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class Report:
    suite: str
    results: tuple

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "reported": 0}
        for r in self.results:
            out[r.status] += 1
        out["total"] = len(self.results)
        return out

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.results)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "tool_version": __version__,
            "results": [r.to_json() for r in self.results],
            "summary": self.counts,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"[{r.status.upper():8s}] {r.check_id}")
            lines.append(f"           claim: {r.claim}")
            lines.append(f"           {r.detail}")
        c = self.counts
        lines.append(f"suite={self.suite} pass={c['pass']} fail={c['fail']} "
                     f"reported={c['reported']} total={c['total']}")
        return "\n".join(lines) + "\n"


class _Failures(list):
    """Collects failure messages and counts the sub-checks that passed."""

    def __init__(self):
        super().__init__()
        self.passed = 0

    def check(self, condition: bool, message: str):
        if condition:
            self.passed += 1
        else:
            self.append(message)

    def result(self, check_id, claim, success_detail) -> CheckResult:
        if self:
            return CheckResult(check_id, claim, "fail", "; ".join(self))
        return CheckResult(check_id, claim, "pass",
                           f"{success_detail} ({self.passed} exact sub-checks)")


def _faulted(op: OuterOp, fault) -> OuterOp:
    """The operator, or a sign-corrupted H when the negative control is on."""
    if fault != FAULT_H_SIGN or op.name != "H":
        return op
    flip = Matrix.from_entries(op.core.n, {(0, 0): -2 * op.core[0, 0]})
    return OuterOp("H", op.core + flip, False, op.signature)


def _signatures(scopes):
    """(label, signature) of each signature in the scopes, Euclidean first."""
    return [(label, sig) for label, sig in (("euclidean", EUCLIDEAN),
                                            ("lorentzian", LORENTZIAN))
            if label in scopes]


def _bases(signature):
    """The V, L, R bases of a signature."""
    return (vector_basis(signature),) + spinor_bases(signature)


@lru_cache(maxsize=None)
def _graded(signature):
    return graded_basis(vector_basis(signature), signature_ops(signature)[0])


@lru_cache(maxsize=None)
def _intersections():
    v, left, right = _bases(EUCLIDEAN)
    rv, rl, rr = restrict(v, 0), restrict(left, 0), restrict(right, 0)
    return (intersect_pair(rv, rl), intersect_pair(rv, rr),
            intersect_pair(rl, rr), rv, rl, rr)


# ---------------------------------------------------------------------------
# check bodies
# ---------------------------------------------------------------------------

def _check_01(scopes, fault):
    f = _Failures()
    if "euclidean" in scopes:
        basis = cl8_basis()
        for i in range(8):
            for j in range(i, 8):
                f.check(basis.clifford_defect(i, j).is_zero,
                        f"euclidean anticommutator defect at ({i},{j})")
    if "lorentzian" in scopes:
        for chiral in (False, True):
            basis = cl17_basis(chiral=chiral)
            for i in range(8):
                for j in range(i, 8):
                    f.check(basis.clifford_defect(i, j).is_zero,
                            f"lorentzian({'chiral' if chiral else 'plain'}) "
                            f"defect at ({i},{j})")
    return f


def _check_02(scopes, fault):
    f = _Failures()
    if "euclidean" in scopes:
        vol = volume_element(cl8_basis())
        f.check(vol.squares_to_plus_identity, "euclidean omega^2 != +I")
        f.check(vol.anticommutes_with_all,
                "euclidean omega fails to anticommute")
        ident = Matrix.identity(16)
        plus = (ident + vol.omega).scale(HALF)
        minus = (ident - vol.omega).scale(HALF)
        f.check(plus @ plus == plus and minus @ minus == minus
                and plus + minus == ident, "projectors not idempotent")
    if "lorentzian" in scopes:
        vol = volume_element(cl17_basis())
        f.check(vol.squares_to_minus_identity, "lorentzian omega^2 != -I")
    return f


def _check_03(scopes, fault):
    f = _Failures()
    if "euclidean" in scopes:
        v, left, right = _bases(EUCLIDEAN)
        for b in (v, left, right):
            for idx in GEN_INDICES:
                f.check(b[idx].is_real and b[idx].is_antisymmetric,
                        f"{b.kind}{idx} not real antisymmetric")
        rep_vl = same_span(v, left)
        rep_vr = same_span(v, right)
        f.check(rep_vl.equal and rep_vl.dim_first == 28,
                f"V and L spans differ: {rep_vl}")
        f.check(rep_vr.equal, f"V and R spans differ: {rep_vr}")
    return f


def _check_04(scopes, fault):
    f = _Failures()
    for label, sig in _signatures(scopes):
        v, left, right = _bases(sig)
        f.check(same_structure_constants(v, left).equal,
                f"{label} V/L structure constants differ")
        f.check(same_structure_constants(left, right).equal,
                f"{label} L/R structure constants differ")
    return f


def _cycle_exact(op, v, left, right, f, label):
    step1 = apply_outer(op, v)
    for idx in GEN_INDICES:
        f.check(step1[idx] == left[idx], f"{label}(V) != L at {idx}")
    step2 = apply_outer(op, step1)
    for idx in GEN_INDICES:
        f.check(step2[idx] == right[idx], f"{label}^2(V) != R at {idx}")
    step3 = apply_outer(op, step2)
    for idx in GEN_INDICES:
        f.check(step3[idx] == v[idx], f"{label}^3(V) != V at {idx}")


def _check_05(scopes, fault):
    f = _Failures()
    for _, sig in _signatures(scopes):
        rotation = signature_ops(sig)[0]
        v, left, right = _bases(sig)
        _cycle_exact(_faulted(rotation, fault), v, left, right, f,
                     rotation.name)
        f.check(unpack(rotation).matrix.power(3) == Matrix.identity(28),
                f"unpacked {rotation.name} does not cube to the identity")
    return f


def _check_06(scopes, fault):
    f = _Failures()
    if "euclidean" in scopes:
        v, left, right = _bases(EUCLIDEAN)
        mapped = apply_outer(outer_k(), left)
        for idx in GEN_INDICES:
            f.check(P_MATRIX @ mapped[idx] @ P_MATRIX.T == right[idx],
                    f"P K(L) P^T != R at {idx}")
        mapped_v = apply_outer(outer_k(), v)
        for idx in GEN_INDICES:
            f.check(mapped_v[idx] == P_MATRIX @ v[idx] @ P_MATRIX.T,
                    f"K(V) != P V P^T at {idx}")
    if "lorentzian" in scopes:
        v, left, right = _bases(LORENTZIAN)
        mapped = apply_outer(outer_conj(), left)
        for idx in GEN_INDICES:
            f.check(mapped[idx] == right[idx], f"conj(L) != R at {idx}")
    return f


def _check_07(scopes, fault):
    f = _Failures()
    for label, sig in _signatures(scopes):
        closure = s3_closure(signature_ops(sig))
        f.check(len(closure.elements) == 6,
                f"{label} closure has {len(closure.elements)} elements")
        f.check(closure.is_s3 and closure.relation_holds,
                f"{label} closure is not S3")
    return f, "raw 4x4 cores closed at 6 elements; no P-cleanup path needed"


def _check_08(scopes, fault):
    f = _Failures()
    if "euclidean" in scopes:
        u = diagonalize("H").change_of_basis
        f.check(u.is_unitary, "U not unitary")
        k_prime = u.dagger() @ outer_k().core @ u
        expected = Matrix(((1, 0, 0, 0), (0, 1, 0, 0),
                           (0, 0, 0, 1), (0, 0, 1, 0)))
        f.check(k_prime == expected, "U+ K U != K' as printed")
    if "lorentzian" in scopes:
        t = outer_t().core
        f.check(t.is_symmetric, "T not symmetric")
        f.check(t.power(2) == t.conj(), "T^2 != T*")
        f.check((t.power(2) @ t) == Matrix.identity(4), "T^2 != T^-1")
        b = diagonalize("T").change_of_basis
        f.check(b.is_real and b.is_orthogonal, "B not real orthogonal")
        f.check(t @ b == b @ diagonalize("T").diagonal, "T B != B D")
    return f


_EXPECTED_B_CONSTRAINTS = {
    "b12": {"b47": 1, "b56": 1},
    "b13": {"b46": -1, "b57": 1},
    "b14": {"b27": -1, "b36": 1},
    "b15": {"b26": -1, "b37": 1},
    "b16": {"b25": 1, "b34": -1},
    "b17": {"b24": 1, "b35": 1},
    "b23": {"b45": 1, "b67": 1},
}


def _check_09(scopes, fault):
    f = _Failures()
    if "euclidean" in scopes:
        sys_vl, sys_vr, sys_lr, rv, rl, rr = _intersections()
        f.check(sys_vl.subspace.dim == 14,
                f"intersection dimension {sys_vl.subspace.dim} != 14")
        f.check(sys_vl.rank == 28 and sys_vl.unknowns == 42,
                f"stacked system rank {sys_vl.rank}/{sys_vl.unknowns}")
        solved = {c.dependent: {var: coeff for coeff, var in c.terms}
                  for c in sys_vl.constraints}
        for dep, expected in _EXPECTED_B_CONSTRAINTS.items():
            got = solved.get(dep)
            want = {var: rational(c) for var, c in expected.items()}
            f.check(got == want, f"constraint {dep} came out as {got}")
        # a_ij = b_ij on the whole solution space
        for idx in rl.indices:
            a_name = f"a{idx[0]}{idx[1]}"
            b_name = f"b{idx[0]}{idx[1]}"
            a_terms = solved.get(a_name)
            b_terms = solved.get(b_name, {b_name: ONE})
            f.check(a_terms == b_terms, f"{a_name} != {b_name} on solutions")
        f.check(sys_vl.subspace == sys_vr.subspace == sys_lr.subspace,
                "pairwise intersections differ")
        triple = intersect([rv.matrices(), rl.matrices(), rr.matrices()])
        f.check(triple == sys_vl.subspace, "triple != pairwise intersection")
    return f


def _check_10(scopes, fault):
    f = _Failures()
    if "euclidean" in scopes:
        g2 = g2_basis()   # construction itself verifies bracket closure
        sys_vl = _intersections()[0]
        for k, lam in enumerate(g2.lambdas, 1):
            f.check(sys_vl.subspace.contains_matrix(lam),
                    f"Lambda{k} outside the intersection")
        gram = lambda_gram(g2)
        for a in range(14):
            for b in range(14):
                if a != b:
                    f.check(gram[a, b] == ZERO,
                            f"Lambda{a+1}, Lambda{b+1} not orthogonal")
        f.check(is_closed(g2.su3_part()), "Lambda1..8 do not close")
        swapped = g2.swapped()
        for k in range(7):
            f.check(commutator(swapped[k], swapped[k + 7]).is_zero,
                    f"[Lambda{k+1}, Lambda{k+8}] != 0 after the 8<->10 swap")
    return (f, "norms uniform at 1/2 under tr(X+Y)/2, i.e. orthonormal "
               "under tr(X+Y); see check 17")


def _check_11(scopes, fault):
    f = _Failures()
    if "euclidean" in scopes:
        u = su3_transform()
        f.check(u.is_unitary, "7x7 transform not unitary")
        f.check(det(u) == ONE, "7x7 transform determinant != 1")
        try:
            emb = su3_embedding(g2_basis())
            f.passed += 8
        except TrialityError as exc:
            f.append(f"block decomposition failed: {exc}")
    return (f, "U Lambda_k U+ = -(i/2) diag(0, l_k, -l_k^T) exact for k=1..8; "
               "with the physics i the factor becomes the generator "
               "normalization l_k/2")


def _grading_checks(signature, f, label):
    op = signature_ops(signature)[0]
    graded = _graded(signature)
    graded_left = graded_basis(spinor_bases(signature)[0], op)
    # eigenvalue labeling, coefficient level (under the unpacked operator)
    unpacked = unpack(op)
    for pos, vec in enumerate(graded.coeff_vectors):
        lam = graded.eigenvalue_of(pos)
        out = unpacked.apply(vec)
        f.check(all(o == lam * x for o, x in zip(out, vec)),
                f"{label}: coefficient eigencheck fails at position {pos}")
    # eigenvalue labeling, matrix level: the same combination built from the
    # successor basis equals the eigenvalue times the original
    for a, b in zip(graded.g2_part, graded_left.g2_part):
        f.check(a == b, f"{label}: invariant part not fixed elementwise")
    for a, b in zip(graded.right_part, graded_left.right_part):
        f.check(b == a.scale(OMEGA), f"{label}: right part misses e^(+i2pi/3)")
    for a, b in zip(graded.left_part, graded_left.left_part):
        f.check(b == a.scale(OMEGA_BAR), f"{label}: left part misses e^(-i2pi/3)")
    # bracket structure
    f.check(is_closed(graded.g2_part), f"{label}: invariant part not closed")
    f.check(not is_closed(graded.right_part + graded.left_part),
            f"{label}: the 14 handed generators unexpectedly close")
    span_g2 = Subspace.from_matrices(graded.g2_part)
    span_r = Subspace.from_matrices(graded.right_part)
    span_l = Subspace.from_matrices(graded.left_part)
    for i in range(7):
        for j in range(7):
            if i < j:
                f.check(span_l.contains_matrix(
                    commutator(graded.right_part[i], graded.right_part[j])),
                    f"{label}: [R,R] left the left-handed space at ({i},{j})")
                f.check(span_r.contains_matrix(
                    commutator(graded.left_part[i], graded.left_part[j])),
                    f"{label}: [L,L] left the right-handed space at ({i},{j})")
            f.check(span_g2.contains_matrix(
                commutator(graded.right_part[i], graded.left_part[j])),
                f"{label}: [R,L] left the invariant space at ({i},{j})")
    # sibling pairing
    allgens = graded.all_generators()
    for i, r in enumerate(graded.right_part):
        commuting = [j for j, l in enumerate(graded.left_part)
                     if commutator(r, l).is_zero]
        f.check(len(commuting) == 1,
                f"{label}: right {i} commutes with {len(commuting)} left gens")
        if len(commuting) == 1:
            sibling = graded.left_part[commuting[0]]
            partners = [g for g in allgens
                        if killing_form(r, g) != ZERO]
            f.check(len(partners) == 1 and partners[0] == sibling,
                    f"{label}: right {i} has non-sibling kappa partners")


def _check_12(scopes, fault):
    f = _Failures()
    for label, sig in _signatures(scopes):
        _grading_checks(sig, f, label)
    return f


def _check_13(scopes, fault):
    f = _Failures()
    minus28 = rational(-28)
    minus14 = rational(-14)
    detail = "euclidean originals -28 each; graded bases -14; handed null"
    if "euclidean" in scopes:
        v, left, right = _bases(EUCLIDEAN)
        for b in (v, left, right):
            f.check(killing_trace(b.matrices()) == minus28,
                    f"euclidean {b.kind} trace != -28")
        graded = _graded(EUCLIDEAN)
        f.check(killing_trace(graded.all_generators()) == minus14,
                "euclidean graded trace != -14")
        for k, x in enumerate(graded.right_part + graded.left_part):
            f.check(killing_form(x, x) == ZERO,
                    f"euclidean handed generator {k} not null")
    if "lorentzian" in scopes:
        v, left, right = _bases(LORENTZIAN)
        graded = _graded(LORENTZIAN)
        f.check(killing_trace(graded.all_generators()) == minus14,
                "lorentzian graded trace != -14")
        for k, x in enumerate(graded.right_part + graded.left_part):
            f.check(killing_form(x, x) == ZERO,
                    f"lorentzian handed generator {k} not null")
        originals = sorted(str(killing_trace(b.matrices()))
                           for b in (v, left, right))
        f.check(originals == ["-14", "-14", "-14"],
                f"lorentzian original traces came out as {originals}")
        detail += ("; lorentzian originals are -14 (7 boosts at +1, 21 "
                   "rotations at -1), matching the so(1,7) reading")
    return f, detail


def _check_14(scopes, fault):
    f = _Failures()
    if "euclidean" in scopes:
        graded = _graded(EUCLIDEAN)
        h_form = Matrix.diag((ONE,) + (MINUS_ONE,) * 7)
        for k, x in enumerate(graded.all_generators()):
            f.check(x.is_antisymmetric,
                    f"euclidean graded generator {k} not antisymmetric")
            f.check((x.dagger() @ h_form + h_form @ x).is_zero,
                    f"euclidean V-kind graded generator {k} breaks X+h+hX=0")
    if "lorentzian" in scopes:
        graded = _graded(LORENTZIAN)
        eta = Matrix.diag((ONE,) + (MINUS_ONE,) * 7)
        for k, x in enumerate(graded.all_generators()):
            f.check((x.T @ eta + eta @ x).is_zero,
                    f"lorentzian graded generator {k} breaks X^T eta+eta X=0")
    return f


def _check_15(scopes, fault):
    f = _Failures()
    if "lorentzian" in scopes:
        _, left, right = _bases(LORENTZIAN)
        for b in (left, right):
            for (i, j) in GEN_INDICES:
                x = b[(i, j)]
                if i == 0:
                    f.check(x.is_hermitian,
                            f"{b.kind}({i},{j}) boost not Hermitian")
                else:
                    f.check(x.is_antihermitian,
                            f"{b.kind}({i},{j}) rotation not anti-Hermitian")
    return f


def _check_16(scopes, fault):
    f = _Failures()
    first = _run_checks("all", None, include_tooling=False)
    second = _run_checks("all", None, include_tooling=False)
    as_json = lambda results: json.dumps(
        [r.to_json() for r in results], sort_keys=True)
    f.check(as_json(first) == as_json(second),
            "two serializations of the suite differ")
    f.check(all(r.status != "fail" for r in first),
            "baseline run contains failures")
    injected = _run_checks("all", FAULT_H_SIGN, include_tooling=False)
    flipped = [r.check_id for a, r in zip(first, injected)
               if a.status != r.status]
    f.check(flipped == ["05-triality-cycling"],
            f"fault injection flipped {flipped}")
    injected_by_id = {r.check_id: r for r in injected}
    f.check(injected_by_id["05-triality-cycling"].status == "fail",
            "fault injection did not fail the cycling check")
    return (f, "serialization deterministic; h-sign fault flips exactly "
               "05-triality-cycling (cross-process byte-identity is "
               "exercised by the acceptance tests)")


def _check_17():
    gram = lambda_gram(g2_basis())
    norms = sorted({str(gram[k, k]) for k in range(14)})
    detail = (f"norm^2 of every Lambda under tr(X+Y)/2: {norms}; the family "
              "is orthonormal under the plain trace pairing tr(X+Y); "
              "'orthonormal' is downgraded to 'orthogonal with uniform norm'")
    return CheckResult("17-lambda-norm-convention",
                       "A more convenient orthonormal basis",
                       "reported", detail)


# ---------------------------------------------------------------------------
# registry and runners
# ---------------------------------------------------------------------------

_CHECKS = (
    ("01-clifford-relations",
     "standard Euclidean Clifford algebra; {Gamma_i, Gamma_j} = 2 eta_ij",
     {"euclidean", "lorentzian"}, _check_01),
    ("02-volume-elements",
     "squares to the identity; omega^2 = -1",
     {"euclidean", "lorentzian"}, _check_02),
    ("03-reality-and-shared-span",
     "span precisely the same space",
     {"euclidean"}, _check_03),
    ("04-structure-constants-match",
     "the structure functions of the bases match; exactly the same "
     "structure constants",
     {"euclidean", "lorentzian"}, _check_04),
    ("05-triality-cycling",
     "recover precisely the generators; send V -> L -> R -> V",
     {"euclidean", "lorentzian"}, _check_05),
    ("06-duality-maps",
     "must be followed up by a change of basis P; L_ij* = R_ij",
     {"euclidean", "lorentzian"}, _check_06),
    ("07-s3-closure",
     "generate a representation of the permutation group S3",
     {"euclidean", "lorentzian"}, _check_07),
    ("08-operator-identities",
     "T^2 = T* = T^-1; not only unitary but real-orthogonal; swaps the two "
     "seven dimensional eigenspaces",
     {"euclidean", "lorentzian"}, _check_08),
    ("09-spin7-intersection",
     "leaving us with 14 free dimensions; 42 parameters, with 7+21 "
     "constraints; as good as demanding all three",
     {"euclidean"}, _check_09),
    ("10-g2-lambda-basis",
     "form precisely a standard su(3) sub-algebra; [Lambda_i, "
     "Lambda_{i+7}] = 0",
     {"euclidean"}, _check_10),
    ("11-su3-embedding",
     "which is precisely 1 + 3 + 3bar",
     {"euclidean"}, _check_11),
    ("12-triality-grading",
     "it fixes each of those elements in place; commute with precisely one",
     {"euclidean", "lorentzian"}, _check_12),
    ("13-killing-traces",
     "originally -28, here is now -14; their squares are traceless",
     {"euclidean", "lorentzian"}, _check_13),
    ("14-form-preservation",
     "still preserve the standard bi-linear inner product; inner product "
     "g = I_{1,7} is still preserved",
     {"euclidean", "lorentzian"}, _check_14),
    ("15-hermiticity-split",
     "generators of boosts are Hermitian",
     {"lorentzian"}, _check_15),
    ("16-tooling-determinism",
     "byte-identical output across runs; negative control flips exactly "
     "one check",
     {"euclidean", "lorentzian"}, _check_16),
)


@lru_cache(maxsize=None)
def _run_body(fn_index: int, scopes: frozenset, fault):
    """Memoized check body; keys are (registry index, scope set, fault)."""
    return _CHECKS[fn_index][3](scopes, fault)


def _run_checks(suite: str, fault, include_tooling=True):
    scopes = {"euclidean", "lorentzian"} if suite == "all" else {suite}
    results = []
    for n, (check_id, claim, check_scopes, fn) in enumerate(_CHECKS):
        active = scopes & check_scopes
        if not active:
            continue
        if check_id == "16-tooling-determinism" and not include_tooling:
            continue
        # only the cycling check consumes the fault, so only it re-runs
        # when the negative control is active
        effective = fault if check_id == "05-triality-cycling" else None
        out = _run_body(n, frozenset(active), effective)
        if isinstance(out, tuple):
            failures, success_detail = out
        else:
            failures, success_detail = out, "verified exactly"
        results.append(failures.result(check_id, claim, success_detail))
    if "euclidean" in scopes:
        results.append(_check_17())
    results.sort(key=lambda r: r.check_id)
    return results


def run_suite(suite: str = "all", fault=None) -> Report:
    """Run the verification suite and return its deterministic Report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return Report(suite=suite, results=tuple(_run_checks(suite, fault)))
