"""The fault matrix: each case breaks one builder in this process, by
patching exactly one module attribute, and pins which rows and which
(check, signature) parts fail, for ``all`` and, when the fault lives in
one signature, for the suite of the other signature.  Every check from 01
to 16, and every part of ``checks._CHECKS``, fails in at least one case.
Each case runs under ``cold_caches``, so no broken object outlives it.
Which parts a suite runs, and in what order, is pinned by the row keys
of ``test_op_counts.py``.
"""

from types import MappingProxyType

import pytest

from triality import checks, clifford, outer, representations, subalgebras
from triality.checks import run_suite
from triality.clifford import EUCLIDEAN
from triality.field import I, ONE
from triality.matrix import Matrix


def label_parts(monkeypatch, run):
    """Patch ``checks._part`` so that ``run_suite`` runs each (check,
    signature) part as ``run(label, part)``, where ``part()`` runs it and
    returns its failures.  The label is the check's number and the
    signature, as ``"05 (8,0)"``, with " h-sign" for check 16's faulted
    control part and " re-run" for the second clean run of a label.  The
    check numbers come from a ``{body: check id}`` map of
    ``checks._CHECKS`` as it stands when the patch is made."""
    ids = {body: check_id[:2] for check_id, _, _, body, _ in checks._CHECKS}
    real, seen = checks._part, set()

    def part(body, fx, *fault):
        label = f"{ids[body]} {fx.sig}" + (" h-sign" if fault else "")
        if label in seen:
            label += " re-run"
        seen.add(label)
        return run(label, lambda: real(body, fx, *fault))

    monkeypatch.setattr(checks, "_part", part)


def _drop_sign_flips(monkeypatch):
    monkeypatch.setattr(representations, "SIGN_FLIPS", ())


def _m_phase_minus_i(monkeypatch):
    monkeypatch.setattr(representations, "M_MATRIX",
                        Matrix.diag((-I,) + (ONE,) * 7))


def _negate_lambda3(monkeypatch):
    monkeypatch.setattr(subalgebras, "_FAMILY_HALF", tuple(
        (r, c, k, -s if k == 3 else s) for r, c, k, s in subalgebras._FAMILY_HALF))


def _negate_gamma1_entry(monkeypatch):
    real = clifford.cl8_basis

    def broken():
        basis = real()
        g = basis.gammas[1]
        entries = {(i, j): x for i, row in enumerate(g.rows) for j, x in row.items()}
        entries[0, 9] = -entries[0, 9]
        gammas = list(basis.gammas)
        gammas[1] = Matrix.from_entries(g.n, entries)
        return clifford.GammaBasis(basis.signature, tuple(gammas), basis.gamma5)

    monkeypatch.setattr(clifford, "cl8_basis", broken)


def _negate_a_quartet_coefficient(monkeypatch):
    """Every core sends generator (0, 1) to its quartet with the first
    coefficient negated."""
    real = outer.quartet_terms

    def broken(core):
        terms = real(core)
        (old, c), *rest = terms[(0, 1)]
        return {**terms, (0, 1): ((old, -c), *rest)}

    monkeypatch.setattr(outer, "quartet_terms", broken)


def _break_the_euclidean_s3(monkeypatch):
    """K with core diag(-1, 1, -1, 1): with H it closes at twelve
    elements, not into S3."""
    real = outer.outer_k

    def broken():
        op = real()
        return outer.OuterOp(op.name, Matrix.diag((-1, 1, -1, 1)),
                             op.antilinear, op.signature)

    monkeypatch.setattr(outer, "outer_k", broken)


def _negate_core_corner(name):
    """A fault that negates entry (0, 0) of the core of ``outer_<name>``."""
    def fault(monkeypatch):
        real = getattr(outer, f"outer_{name}")

        def broken():
            op = real()
            flip = Matrix.from_entries(4, {(0, 0): -2 * op.core[0, 0]})
            return outer.OuterOp(op.name, op.core + flip, op.antilinear,
                                 op.signature)

        monkeypatch.setattr(outer, f"outer_{name}", broken)
    fault.__name__ = f"_negate_the_{name}_core_corner"
    return fault


def _lorentzian_vectors_without_boosts(monkeypatch):
    """The Lorentzian vector basis is the Euclidean one: no boosts, so the
    graded generators stop preserving eta."""
    real = representations.vector_basis
    monkeypatch.setattr(representations, "vector_basis",
                        lambda signature=EUCLIDEAN: real(EUCLIDEAN))


def _gamma0_of_cl17_times_i(monkeypatch):
    """Gamma_0 of both Cl(1,7) ladders multiplied by i, so the boosts
    Gamma_0 Gamma_j / 2 stop being Hermitian."""
    real = clifford.cl17_basis

    def broken(chiral=False):
        basis = real(chiral=chiral)
        gammas = (basis.gammas[0].scale(I),) + basis.gammas[1:]
        return clifford.GammaBasis(basis.signature, gammas, basis.gamma5)

    monkeypatch.setattr(clifford, "cl17_basis", broken)


def _check_15_clears_a_euclidean_l_row(monkeypatch):
    """Check 15's body, the last part of ``all``, clears row 3 of the
    Euclidean L generator (1, 2) after it runs.  The interned bases hand
    that matrix to every later reader, so only check 16's re-run of the
    cycling part sees it."""
    def leaking(fx, f):
        body(fx, f)
        representations.spinor_bases(EUCLIDEAN)[0][(1, 2)].rows[3].clear()

    (check_id, claim, sigs, body, detail), = (
        row for row in checks._CHECKS if row[0].startswith("15"))
    monkeypatch.setattr(checks, "_CHECKS", tuple(
        (check_id, claim, sigs, leaking, detail) if row[0] == check_id else row
        for row in checks._CHECKS))


# fault, suite, the checks whose rows fail, and the parts that fail, in run
# order: every part but check 16's h-sign control part, which fails on
# purpose
FAULT_MATRIX = [
    (_drop_sign_flips, "all", ["05", "09", "12", "16"],
     ["05 (8,0)", "05 (1,7)", "09 (8,0)", "12 (8,0)", "12 (1,7)",
      "05 (8,0) re-run"]),
    (_m_phase_minus_i, "all", ["05", "12", "16"], ["05 (1,7)", "12 (1,7)"]),
    (_m_phase_minus_i, "euclidean", [], []),
    (_negate_lambda3, "all", ["11", "16"], ["11 (8,0)"]),
    (_negate_lambda3, "lorentzian", [], []),
    # check 16's control part is Euclidean, so it fails in every suite
    (_negate_gamma1_entry, "all",
     ["01", "02", "03", "04", "05", "06", "09", "10", "12", "13", "16"],
     ["01 (8,0)", "02 (8,0)", "03 (8,0)", "04 (8,0)", "05 (8,0)", "06 (8,0)",
      "09 (8,0)", "10 (8,0)", "12 (8,0)", "13 (8,0)", "05 (8,0) re-run"]),
    (_negate_gamma1_entry, "lorentzian", ["16"], ["05 (8,0)", "05 (8,0) re-run"]),
    (_negate_a_quartet_coefficient, "all", ["05", "06", "12", "16"],
     ["05 (8,0)", "05 (1,7)", "06 (8,0)", "06 (1,7)", "12 (8,0)", "12 (1,7)",
      "05 (8,0) re-run"]),
    (_break_the_euclidean_s3, "all", ["06", "07", "08", "16"],
     ["06 (8,0)", "07 (8,0)", "08 (8,0)"]),
    (_break_the_euclidean_s3, "lorentzian", [], []),
    (_negate_core_corner("h"), "all", ["05", "07", "08", "12", "13", "14", "16"],
     ["05 (8,0)", "07 (8,0)", "08 (8,0)", "12 (8,0)", "13 (8,0)", "14 (8,0)",
      "05 (8,0) re-run"]),
    (_negate_core_corner("h"), "lorentzian", ["16"], ["05 (8,0)", "05 (8,0) re-run"]),
    (_negate_core_corner("t"), "all", ["05", "07", "08", "12", "13", "14", "16"],
     ["05 (1,7)", "07 (1,7)", "08 (1,7)", "12 (1,7)", "13 (1,7)", "14 (1,7)"]),
    (_negate_core_corner("t"), "euclidean", [], []),
    (_lorentzian_vectors_without_boosts, "all",
     ["04", "05", "12", "13", "14", "16"],
     ["04 (1,7)", "05 (1,7)", "12 (1,7)", "13 (1,7)", "14 (1,7)"]),
    (_lorentzian_vectors_without_boosts, "euclidean", [], []),
    (_gamma0_of_cl17_times_i, "all",
     ["01", "02", "04", "05", "06", "12", "13", "15", "16"],
     ["01 (1,7)", "02 (1,7)", "04 (1,7)", "05 (1,7)", "06 (1,7)", "12 (1,7)",
      "13 (1,7)", "15 (1,7)"]),
    (_gamma0_of_cl17_times_i, "euclidean", [], []),
    (_check_15_clears_a_euclidean_l_row, "all", ["16"], ["05 (8,0) re-run"]),
    (_check_15_clears_a_euclidean_l_row, "euclidean", [], []),
]


def test_every_check_has_a_fault_that_fails_it():
    failed = {check for _, _, failing, _ in FAULT_MATRIX for check in failing}
    assert failed == {f"{n:02d}" for n in range(1, 17)}


def test_every_part_has_a_fault_that_fails_it():
    """A row joins its signatures' parts, so a part that no fault fails
    could hide behind its twin; each (check, signature) part of
    ``checks._CHECKS`` fails on its own in some case."""
    failed = {part for *_, parts in FAULT_MATRIX for part in parts}
    assert {f"{check_id[:2]} {sig}" for check_id, _, sigs, _, _ in checks._CHECKS
            for sig in sigs} <= failed


class _OnePatch:
    """Hands a fault ``monkeypatch.setattr`` and records what it patched."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.patched = []

    def setattr(self, owner, name, value):
        self.patched.append((owner.__name__, name))
        self._monkeypatch.setattr(owner, name, value)


# each case's id is its fault's name and its suite, so adding a case
# renames no other
@pytest.mark.parametrize("fault, suite, failing, parts", [
    pytest.param(*case, id=f"{case[0].__name__}-{case[1]}")
    for case in FAULT_MATRIX])
def test_a_fault_fails_exactly_its_rows_and_parts(monkeypatch, cold_caches,
                                                  fault, suite, failing, parts):
    patch = _OnePatch(monkeypatch)
    fault(patch)
    failed = []

    def run(label, part):
        failures = part()
        if failures and not label.endswith("h-sign"):
            failed.append(label)
        return failures

    label_parts(monkeypatch, run)
    report = run_suite(suite)
    assert len(patch.patched) == 1, patch.patched
    assert [r.check_id[:2] for r in report.results if r.status == "fail"] == failing
    assert failed == parts


def _change_spinor(kind, idx, change):
    """A fault that applies ``change`` to generator ``idx`` of the spinor
    basis ``kind`` ("L" or "R") in both signatures."""
    def fault(monkeypatch):
        real = representations.spinor_bases

        def broken(signature=EUCLIDEAN):
            bases = list(real(signature))
            k = "LR".index(kind)
            gens = dict(bases[k].gens)
            gens[idx] = change(gens[idx])
            bases[k] = representations.LieBasis(
                kind, signature, MappingProxyType(gens))
            return tuple(bases)

        monkeypatch.setattr(representations, "spinor_bases", broken)
    return fault


def _fails_at(*pairs):
    return "; ".join(f"{sig} {pair} structure constants differ first at "
                     f"(a, b, c) = {at}" for sig in ("euclidean", "lorentzian")
                     for pair, at in pairs)


# a changed spinor generator and check 04's whole failing detail
CHECK_04_DETAILS = [
    (_change_spinor("L", (0, 1), lambda m: -m),
     _fails_at(("V/L", (0, 1, 7)), ("L/R", (0, 1, 7)))),
    (_change_spinor("R", (2, 3), lambda m: m.scale(2)),
     _fails_at(("L/R", (1, 2, 13)))),
    (_change_spinor("L", (3, 7), lambda m: m.scale(3)),
     _fails_at(("V/L", (2, 6, 21)), ("L/R", (2, 6, 21)))),
    (_change_spinor("L", (0, 2), lambda m: m + Matrix.identity(8)),
     "; ".join(["bracket of generators 0 and 7 leaves the span"] * 2)),
]


@pytest.mark.parametrize("fault, detail", CHECK_04_DETAILS)
def test_check_04_names_where_the_structure_constants_differ(
        monkeypatch, cold_caches, fault, detail):
    fault(monkeypatch)
    row = next(r for r in run_suite("all").results
               if r.check_id.startswith("04"))
    assert (row.status, row.detail) == ("fail", detail)
