"""The machine-verification suite: every claim as an exact pass/fail check.

Each acceptance criterion owns exactly one check id (01..16); check 17 is
the supplementary norm-convention report for the Lambda family.  A check
body verifies its claim in one signature; a suite runs only the parts of
its own signatures, and each row joins them, Euclidean first.  Check 16's
negative control always adds the Euclidean cycling part, faulted, and
re-runs it clean on new fixtures after every other part.  All comparisons
are zero-tolerance; a check either holds exactly or it fails with a
counterexample in its detail string.

What several checks of a signature share (its bases, its graded basis,
the axis-0 intersections, the Lambda Gram matrix) lives on a
``_Fixtures`` object that one ``run_suite`` call makes and drops when it
returns; ``checks`` keeps no cache of its own.  Builders are called
through their modules (``clifford.cl8_basis()``), so each has one patch
point: the attribute of the module that defines it.
"""

from __future__ import annotations

from functools import cached_property

from . import __version__, clifford, outer, representations, subalgebras
from ._record import Record
from .clifford import EUCLIDEAN, LORENTZIAN
from .emit import dumps_line
from .errors import TrialityError
from .field import HALF, MINUS_ONE, OMEGA, OMEGA_BAR, ONE, ZERO, rational
from .linalg import Subspace, det, is_closed
from .matrix import Matrix, commutator
from .outer import OuterOp
from .representations import GEN_INDICES, P_MATRIX
from .suites import FAULT_H_SIGN, SUITES

SCHEMA = "triality-report/1"

_LABEL = {EUCLIDEAN: "euclidean", LORENTZIAN: "lorentzian"}
_BOTH = (EUCLIDEAN, LORENTZIAN)
# each suite and the signatures it runs, Euclidean first
_SUITE_SIGNATURES = dict(zip(SUITES, ((EUCLIDEAN,), (LORENTZIAN,), _BOTH)))

# Each fault names the one (check, signature) part it corrupts, so the
# negative control flips exactly one result.
FAULTS = {FAULT_H_SIGN: ("05-triality-cycling", EUCLIDEAN)}


class CheckResult(Record):
    __slots__ = ("check_id", "claim",
                 "status",      # "pass" | "fail" | "reported"
                 "detail")

    def to_json(self) -> dict:
        return {"check_id": self.check_id, "claim": self.claim,
                "status": self.status, "detail": self.detail}


class Report(Record):
    __slots__ = ("suite", "results")

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
        return dumps_line(self.to_json())

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


class _Fixtures:
    """What several checks of one signature share, each built on first use.

    ``run_suite`` makes one per signature per call, so nothing built here
    outlives the run: a second run rebuilds what it reads.
    """

    def __init__(self, sig):
        self.sig = sig

    @cached_property
    def bases(self):
        """The V, L, R bases."""
        return ((representations.vector_basis(self.sig),)
                + representations.spinor_bases(self.sig))

    @cached_property
    def graded(self):
        """The vector basis graded by the signature's order-3 operator."""
        return outer.graded_basis(representations.vector_basis(self.sig),
                                  outer.signature_ops(self.sig)[0])

    @cached_property
    def intersections(self):
        """The three pairwise meets of the axis-0 restrictions, then the
        restrictions rv, rl, rr themselves."""
        rv, rl, rr = (subalgebras.restrict(b, 0) for b in self.bases)
        meet = subalgebras.intersect_pair
        return meet(rv, rl), meet(rv, rr), meet(rl, rr), rv, rl, rr

    @cached_property
    def gram(self):
        """The Gram matrix of the Lambda family, read by checks 10 and 17."""
        return subalgebras.lambda_gram(subalgebras.g2_basis())


# ---------------------------------------------------------------------------
# check bodies: each fills the _Failures of one signature
# ---------------------------------------------------------------------------

def _check_01(fx, f):
    if fx.sig == EUCLIDEAN:
        basis = clifford.cl8_basis()
        for i in range(8):
            for j in range(i, 8):
                f.check(basis.clifford_defect(i, j).is_zero,
                        f"euclidean anticommutator defect at ({i},{j})")
        return
    for chiral in (False, True):
        basis = clifford.cl17_basis(chiral=chiral)
        for i in range(8):
            for j in range(i, 8):
                f.check(basis.clifford_defect(i, j).is_zero,
                        f"lorentzian({'chiral' if chiral else 'plain'}) "
                        f"defect at ({i},{j})")


def _check_02(fx, f):
    if fx.sig == LORENTZIAN:
        vol = clifford.volume_element(clifford.cl17_basis())
        f.check(vol.squares_to_minus_identity, "lorentzian omega^2 != -I")
        return
    vol = clifford.volume_element(clifford.cl8_basis())
    f.check(vol.squares_to_plus_identity, "euclidean omega^2 != +I")
    f.check(vol.anticommutes_with_all, "euclidean omega fails to anticommute")
    ident = Matrix.identity(16)
    plus = (ident + vol.omega).scale(HALF)
    minus = (ident - vol.omega).scale(HALF)
    f.check(plus @ plus == plus and minus @ minus == minus
            and plus + minus == ident, "projectors not idempotent")


def _check_03(fx, f):
    v, left, right = fx.bases
    for b in (v, left, right):
        for idx in GEN_INDICES:
            f.check(b[idx].is_real and b[idx].is_antisymmetric,
                    f"{b.kind}{idx} not real antisymmetric")
    rep_vl = representations.same_span(v, left)
    rep_vr = representations.same_span(v, right)
    f.check(rep_vl.equal and rep_vl.dim_first == 28,
            f"V and L spans differ: {rep_vl}")
    f.check(rep_vr.equal, f"V and R spans differ: {rep_vr}")


def _check_04(fx, f):
    """V, L and R share their structure constants: certified from the
    pairs that hold a seed V_{0j}, with the full arrays solved only to
    name where they differ (``representations.structure_mismatches``)."""
    mismatches = representations.structure_mismatches(fx.bases)
    for pair, at in zip(("V/L", "L/R"), mismatches):
        f.check(at is None, f"{_LABEL[fx.sig]} {pair} structure constants "
                            f"differ first at (a, b, c) = {at}")


def _cycle_exact(op, v, left, right, f, label):
    step1 = outer.apply_outer(op, v)
    for idx in GEN_INDICES:
        f.check(step1[idx] == left[idx], f"{label}(V) != L at {idx}")
    step2 = outer.apply_outer(op, step1)
    for idx in GEN_INDICES:
        f.check(step2[idx] == right[idx], f"{label}^2(V) != R at {idx}")
    step3 = outer.apply_outer(op, step2)
    for idx in GEN_INDICES:
        f.check(step3[idx] == v[idx], f"{label}^3(V) != V at {idx}")


def _check_05(fx, f, fault=None):
    rotation = outer.signature_ops(fx.sig)[0]
    v, left, right = fx.bases
    _cycle_exact(_faulted(rotation, fault), v, left, right, f, rotation.name)
    f.check(outer.unpack(rotation).power(3) == Matrix.identity(28),
            f"unpacked {rotation.name} does not cube to the identity")


def _check_06(fx, f):
    v, left, right = fx.bases
    if fx.sig == LORENTZIAN:
        mapped = outer.apply_outer(outer.outer_conj(), left)
        for idx in GEN_INDICES:
            f.check(mapped[idx] == right[idx], f"conj(L) != R at {idx}")
        return
    mapped = outer.apply_outer(outer.outer_k(), left)
    for idx in GEN_INDICES:
        f.check(P_MATRIX @ mapped[idx] @ P_MATRIX.T == right[idx],
                f"P K(L) P^T != R at {idx}")
    mapped_v = outer.apply_outer(outer.outer_k(), v)
    for idx in GEN_INDICES:
        f.check(mapped_v[idx] == P_MATRIX @ v[idx] @ P_MATRIX.T,
                f"K(V) != P V P^T at {idx}")


def _check_07(fx, f):
    closure = outer.s3_closure(outer.signature_ops(fx.sig))
    f.check(len(closure.elements) == 6,
            f"{_LABEL[fx.sig]} closure has {len(closure.elements)} elements")
    f.check(closure.is_s3 and closure.relation_holds,
            f"{_LABEL[fx.sig]} closure is not S3")


def _check_08(fx, f):
    if fx.sig == EUCLIDEAN:
        u = outer.diagonalize("H").change_of_basis
        f.check(u.is_unitary, "U not unitary")
        k_prime = u.dagger() @ outer.outer_k().core @ u
        expected = Matrix(((1, 0, 0, 0), (0, 1, 0, 0),
                           (0, 0, 0, 1), (0, 0, 1, 0)))
        f.check(k_prime == expected, "U+ K U != K' as printed")
        return
    t = outer.outer_t().core
    f.check(t.is_symmetric, "T not symmetric")
    t2 = t.power(2)
    f.check(t2 == t.conj(), "T^2 != T*")
    f.check(t2 @ t == Matrix.identity(4), "T^2 != T^-1")
    diag = outer.diagonalize("T")
    b = diag.change_of_basis
    f.check(b.is_real and b.is_orthogonal, "B not real orthogonal")
    f.check(t @ b == b @ diag.diagonal, "T B != B D")


_EXPECTED_B_CONSTRAINTS = {
    "b12": {"b47": 1, "b56": 1},
    "b13": {"b46": -1, "b57": 1},
    "b14": {"b27": -1, "b36": 1},
    "b15": {"b26": -1, "b37": 1},
    "b16": {"b25": 1, "b34": -1},
    "b17": {"b24": 1, "b35": 1},
    "b23": {"b45": 1, "b67": 1},
}


def _check_09(fx, f):
    sys_vl, sys_vr, sys_lr, rv, rl, rr = fx.intersections
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
    for idx in rl.gens:
        a_name = f"a{idx[0]}{idx[1]}"
        b_name = f"b{idx[0]}{idx[1]}"
        a_terms = solved.get(a_name)
        b_terms = solved.get(b_name, {b_name: ONE})
        f.check(a_terms == b_terms, f"{a_name} != {b_name} on solutions")
    f.check(sys_vl.subspace == sys_vr.subspace == sys_lr.subspace,
            "pairwise intersections differ")
    triple = subalgebras.intersect(
        [rv.matrices(), rl.matrices(), rr.matrices()])
    f.check(triple == sys_vl.subspace, "triple != pairwise intersection")


def _check_10(fx, f):
    g2 = subalgebras.g2_basis()   # construction verifies bracket closure
    sys_vl = fx.intersections[0]
    for k, lam in enumerate(g2.lambdas, 1):
        f.check(sys_vl.subspace.contains_matrix(lam),
                f"Lambda{k} outside the intersection")
    gram = fx.gram
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


def _check_11(fx, f):
    u = subalgebras.su3_transform()
    f.check(u.is_unitary, "7x7 transform not unitary")
    f.check(det(u) == ONE, "7x7 transform determinant != 1")
    try:
        subalgebras.su3_embedding(subalgebras.g2_basis())
        f.passed += 8
    except TrialityError as exc:
        f.append(f"block decomposition failed: {exc}")


def _check_12(fx, f):
    label = _LABEL[fx.sig]
    op = outer.signature_ops(fx.sig)[0]
    graded = fx.graded
    graded_left = outer.graded_basis(fx.bases[1], op)
    # eigenvalue labeling, coefficient level: the coefficient vectors as
    # the rows of one matrix, mapped by the unpacked operator in one product
    vectors = graded.coeff_vectors
    images = (Matrix._of(vectors, 28) @ outer.unpack(op)).rows
    for pos, (vec, image) in enumerate(zip(vectors, images)):
        lam = graded.eigenvalue_of(pos)
        f.check(image == {k: lam * x for k, x in vec.items()},
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
    # each [R_i, L_j], for the invariant space and the sibling pairing
    mixed = [[commutator(r, l) for l in graded.left_part]
             for r in graded.right_part]
    for i in range(7):
        for j in range(7):
            if i < j:
                f.check(span_l.contains_matrix(
                    commutator(graded.right_part[i], graded.right_part[j])),
                    f"{label}: [R,R] left the left-handed space at ({i},{j})")
                f.check(span_r.contains_matrix(
                    commutator(graded.left_part[i], graded.left_part[j])),
                    f"{label}: [L,L] left the right-handed space at ({i},{j})")
            f.check(span_g2.contains_matrix(mixed[i][j]),
                    f"{label}: [R,L] left the invariant space at ({i},{j})")
    # sibling pairing
    allgens = graded.all_generators()
    for i, r in enumerate(graded.right_part):
        commuting = [j for j, m in enumerate(mixed[i]) if m.is_zero]
        f.check(len(commuting) == 1,
                f"{label}: right {i} commutes with {len(commuting)} left gens")
        if len(commuting) == 1:
            sibling = graded.left_part[commuting[0]]
            partners = [g for g in allgens
                        if outer.killing_form(r, g) != ZERO]
            f.check(len(partners) == 1 and partners[0] == sibling,
                    f"{label}: right {i} has non-sibling kappa partners")


def _check_13(fx, f):
    label = _LABEL[fx.sig]
    bases = fx.bases
    originals = [outer.killing_trace(b.matrices()) for b in bases]
    if fx.sig == EUCLIDEAN:
        for b, trace in zip(bases, originals):
            f.check(trace == rational(-28), f"euclidean {b.kind} trace != -28")
    graded = fx.graded
    f.check(outer.killing_trace(graded.all_generators()) == rational(-14),
            f"{label} graded trace != -14")
    for k, x in enumerate(graded.right_part + graded.left_part):
        f.check(outer.killing_form(x, x) == ZERO,
                f"{label} handed generator {k} not null")
    if fx.sig == LORENTZIAN:
        originals = sorted(str(trace) for trace in originals)
        f.check(originals == ["-14", "-14", "-14"],
                f"lorentzian original traces came out as {originals}")


def _check_14(fx, f):
    form = Matrix.diag((ONE,) + (MINUS_ONE,) * 7)
    for k, x in enumerate(fx.graded.all_generators()):
        if fx.sig == EUCLIDEAN:
            f.check(x.is_antisymmetric,
                    f"euclidean graded generator {k} not antisymmetric")
            f.check((x.dagger() @ form + form @ x).is_zero,
                    f"euclidean V-kind graded generator {k} breaks X+h+hX=0")
        else:
            f.check((x.T @ form + form @ x).is_zero,
                    f"lorentzian graded generator {k} breaks X^T eta+eta X=0")


def _check_15(fx, f):
    _, left, right = fx.bases
    for b in (left, right):
        for (i, j) in GEN_INDICES:
            x = b[(i, j)]
            if i == 0:
                f.check(x.is_hermitian,
                        f"{b.kind}({i},{j}) boost not Hermitian")
            else:
                f.check(x.is_antihermitian,
                        f"{b.kind}({i},{j}) rotation not anti-Hermitian")


def _check_16(baseline, clean, faulted, rerun) -> CheckResult:
    """The suite's clean rows, the h-sign control part clean and faulted,
    and the clean control part re-run on new fixtures after every other
    part, which must repeat the first run exactly."""
    f = _Failures()
    f.check(rerun == clean and rerun.passed == clean.passed,
            f"control part re-run after the suite differs: {rerun.passed} "
            f"passed and {list(rerun)} failed, against {clean.passed} and "
            f"{list(clean)}")
    f.check(all(r.status != "fail" for r in baseline),
            "baseline run contains failures")
    control = FAULTS[FAULT_H_SIGN][0]
    flipped = [control] if bool(clean) != bool(faulted) else []
    f.check(flipped == [control], f"fault injection flipped {flipped}")
    f.check(bool(faulted), "fault injection did not fail the cycling check")
    return f.result("16-tooling-determinism",
                    "byte-identical output across runs; negative control "
                    "flips exactly one check",
                    "serialization deterministic; h-sign fault flips exactly "
                    "05-triality-cycling (cross-process byte-identity is "
                    "exercised by the acceptance tests)")


def _check_17(fx):
    gram = fx.gram
    norms = sorted({str(gram[k, k]) for k in range(14)})
    detail = (f"norm^2 of every Lambda under tr(X+Y)/2: {norms}; the family "
              "is orthonormal under the plain trace pairing tr(X+Y); "
              "'orthonormal' is downgraded to 'orthogonal with uniform norm'")
    return CheckResult("17-lambda-norm-convention",
                       "A more convenient orthonormal basis",
                       "reported", detail)


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

_VERIFIED = "verified exactly"

# check id, claim, the signatures it runs in, body, success detail
_CHECKS = (
    ("01-clifford-relations",
     "standard Euclidean Clifford algebra; {Gamma_i, Gamma_j} = 2 eta_ij",
     _BOTH, _check_01, _VERIFIED),
    ("02-volume-elements",
     "squares to the identity; omega^2 = -1",
     _BOTH, _check_02, _VERIFIED),
    ("03-reality-and-shared-span",
     "span precisely the same space",
     (EUCLIDEAN,), _check_03, _VERIFIED),
    ("04-structure-constants-match",
     "the structure functions of the bases match; exactly the same "
     "structure constants",
     _BOTH, _check_04, _VERIFIED),
    ("05-triality-cycling",
     "recover precisely the generators; send V -> L -> R -> V",
     _BOTH, _check_05, _VERIFIED),
    ("06-duality-maps",
     "must be followed up by a change of basis P; L_ij* = R_ij",
     _BOTH, _check_06, _VERIFIED),
    ("07-s3-closure",
     "generate a representation of the permutation group S3",
     _BOTH, _check_07,
     "raw 4x4 cores closed at 6 elements; no P-cleanup path needed"),
    ("08-operator-identities",
     "T^2 = T* = T^-1; not only unitary but real-orthogonal; swaps the two "
     "seven dimensional eigenspaces",
     _BOTH, _check_08, _VERIFIED),
    ("09-spin7-intersection",
     "leaving us with 14 free dimensions; 42 parameters, with 7+21 "
     "constraints; as good as demanding all three",
     (EUCLIDEAN,), _check_09, _VERIFIED),
    ("10-g2-lambda-basis",
     "form precisely a standard su(3) sub-algebra; [Lambda_i, "
     "Lambda_{i+7}] = 0",
     (EUCLIDEAN,), _check_10,
     "norms uniform at 1/2 under tr(X+Y)/2, i.e. orthonormal under "
     "tr(X+Y); see check 17"),
    ("11-su3-embedding",
     "which is precisely 1 + 3 + 3bar",
     (EUCLIDEAN,), _check_11,
     "U Lambda_k U+ = -(i/2) diag(0, l_k, -l_k^T) exact for k=1..8; with "
     "the physics i the factor becomes the generator normalization l_k/2"),
    ("12-triality-grading",
     "it fixes each of those elements in place; commute with precisely one",
     _BOTH, _check_12, _VERIFIED),
    ("13-killing-traces",
     "originally -28, here is now -14; their squares are traceless",
     _BOTH, _check_13,
     "euclidean originals -28 each; graded bases -14; handed null"),
    ("14-form-preservation",
     "still preserve the standard bi-linear inner product; inner product "
     "g = I_{1,7} is still preserved",
     _BOTH, _check_14, _VERIFIED),
    ("15-hermiticity-split",
     "generators of boosts are Hermitian",
     (LORENTZIAN,), _check_15, _VERIFIED),
)

# what a passing (check, signature) part adds to its row's success detail
_DETAIL_SUFFIX = {
    ("13-killing-traces", LORENTZIAN):
        "; lorentzian originals are -14 (7 boosts at +1, 21 rotations at "
        "-1), matching the so(1,7) reading",
}


def usage_error(suite: str, fault=None):
    """Why ``run_suite(suite, fault)`` cannot run, or None when it can."""
    if suite not in _SUITE_SIGNATURES:
        return f"unknown suite {suite!r}"
    if fault is None:
        return None
    if fault not in FAULTS:
        return f"unknown fault {fault!r}"
    check_id, signature = FAULTS[fault]
    if signature not in _SUITE_SIGNATURES[suite]:
        return (f"fault {fault!r} corrupts the {_LABEL[signature]} part of "
                f"{check_id}, which suite {suite!r} does not run")
    return None


def _part(body, fx, *fault) -> _Failures:
    """Run one (check, signature) part; a ``TrialityError`` fails it."""
    f = _Failures()
    try:
        body(fx, f, *fault)
    except TrialityError as exc:
        f.append(str(exc))
    return f


def _rows(parts, signatures):
    """Each check's row: the join of its parts in ``signatures``."""
    results = []
    for check_id, claim, check_signatures, _, detail in _CHECKS:
        row = _Failures()
        active = [sig for sig in signatures if sig in check_signatures]
        for sig in active:
            part = parts[(check_id, sig)]
            row += part
            row.passed += part.passed
            detail += _DETAIL_SUFFIX.get((check_id, sig), "")
        if active:
            results.append(row.result(check_id, claim, detail))
    return results


def run_suite(suite: str = "all", fault=None) -> Report:
    """Run the verification suite and return its deterministic Report.

    Each part of the suite's signatures runs once, into one table, with
    the clean and faulted Euclidean cycling parts that check 16's h-sign
    control reads; ``fault`` swaps the faulted one into the rows shown.
    Last, check 16 re-runs the clean cycling part on new fixtures, so
    state that one part leaks into a later one shows as a difference.
    The parts of a signature share one ``_Fixtures``, dropped on return.
    A ``TrialityError`` raised inside a body fails its part, with the
    error text as its detail; any other exception propagates.  Raises
    ValueError for an unknown suite or fault, or one the suite cannot run.
    """
    reason = usage_error(suite, fault)
    if reason:
        raise ValueError(reason)
    signatures = _SUITE_SIGNATURES[suite]
    fixtures = {sig: _Fixtures(sig) for sig in _BOTH}
    parts = {(check_id, sig): _part(body, fixtures[sig])
             for check_id, _, check_signatures, body, _ in _CHECKS
             for sig in signatures if sig in check_signatures}
    control = FAULTS[FAULT_H_SIGN]
    body = next(b for check_id, _, _, b, _ in _CHECKS if check_id == control[0])
    if control not in parts:
        parts[control] = _part(body, fixtures[control[1]])
    faulted = _part(body, fixtures[control[1]], FAULT_H_SIGN)
    rerun = _part(body, _Fixtures(control[1]))
    baseline = _rows(parts, signatures)
    results = _rows({**parts, control: faulted}, signatures) if fault else baseline[:]
    results.append(_check_16(baseline, parts[control], faulted, rerun))
    if EUCLIDEAN in signatures:
        results.append(_check_17(fixtures[EUCLIDEAN]))
    return Report(suite=suite, results=tuple(results))
