"""The records keep what their callers rely on, and the CLI its help text.

Records are ``__slots__`` classes on one shared base.  Callers rely on
value equality and hashing (a ``Signature`` keys dicts and caches), on
identity equality for the bases and solvers, on immutability, on keyword construction
and on the repr text that a failure message embeds.
"""

import hashlib
from types import MappingProxyType

import pytest

from triality import checks, cli, representations
from triality.checks import CheckResult, Report
from triality.clifford import (EUCLIDEAN, GammaBasis, Signature, VolumeElement,
                               cl7_basis, dirac_gammas)
from triality.field import ONE, ZERO
from triality.linalg import CoordSolver, StructureConstants, Subspace
from triality.matrix import Matrix
from triality.outer import Diagonalization, GradedBasis, S3Closure, outer_op
from triality.representations import (LieBasis, SpanReport,
                                      StructureMatchReport, vector_basis)
from triality.subalgebras import (Constraint, G2Basis, IntersectionSystem,
                                  Su3Embedding)


def _value_records():
    """Two equal but distinct instances of each value-compared record."""
    m = Matrix.identity(2)
    return [
        lambda: Signature(8, 0),
        lambda: GammaBasis(EUCLIDEAN, (m,)),
        lambda: VolumeElement(m, True, False, True),
        lambda: outer_op("H"),
        lambda: S3Closure(((m, False),), False, {1: 1}, False),
        lambda: Diagonalization(m, m),
        lambda: SpanReport(True, 28, 28, 28),
        lambda: StructureMatchReport(False, (0, 1, 2)),
        lambda: Constraint("b12", ((ONE, "b47"), (ONE, "b56"))),
        lambda: CheckResult("01", "claim", "pass", "detail"),
        lambda: Report("all", ()),
        lambda: Subspace.from_vectors([{0: ONE}], 2),
        lambda: StructureConstants(2, {(0, 1, 0): ONE}),
    ]


def _identity_records():
    """Two instances with the same fields of each identity-compared record."""
    gens = MappingProxyType({})
    return [
        lambda: GradedBasis("H", (), (), (), ()),
        lambda: LieBasis("V", EUCLIDEAN, gens),
        lambda: IntersectionSystem(None, (), 28, 42),
        lambda: G2Basis(()),
        lambda: Su3Embedding(None, (), ZERO),
        lambda: CoordSolver([Matrix.identity(2)]),
    ]


@pytest.mark.parametrize("make", _value_records())
def test_value_records_compare_by_their_fields(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != tuple(getattr(a, name) for name in a.__slots__)
    if not isinstance(a, S3Closure):  # its order_counts is a dict
        assert hash(a) == hash(b)


@pytest.mark.parametrize("make", _identity_records())
def test_six_records_keep_identity_equality(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


def test_hashable_records_key_dicts_and_caches():
    assert {EUCLIDEAN: "e"}[Signature(8, 0)] == "e"
    assert hash(Signature(8, 0)) == hash((8, 0))
    assert vector_basis(Signature(8, 0)) is vector_basis(EUCLIDEAN)
    assert len({outer_op("K"), outer_op("K"), outer_op("T")}) == 2
    assert len({CheckResult("01", "c", "pass", "d"),
                CheckResult("01", "c", "pass", "d"),
                CheckResult("01", "c", "fail", "d")}) == 2
    assert len({Constraint("b12", ((ONE, "b47"),)),
                Constraint("b12", ((ONE, "b47"),))}) == 1
    assert Signature(8, 0) != Signature(1, 7)


@pytest.mark.parametrize("make", _value_records() + _identity_records())
def test_records_are_immutable(make):
    record = make()
    field = record.__slots__[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot assign"):
        record.extra = None
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)


def test_scalars_and_matrices_cannot_lose_a_field():
    """``ExactScalar`` and ``Matrix`` guard their slots themselves: a
    deleted slot of the shared ``ONE`` would break it in every module."""
    for value in (ONE, Matrix.identity(2)):
        for field in value.__slots__:
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(value, field)
    assert (ONE.den, ONE.nums) == (1, ((0, 1),))
    assert Matrix.identity(2)[1, 1] == ONE


def test_keyword_construction():
    span = SpanReport(equal=False, dim_first=28, dim_second=28, dim_union=56)
    assert (span.equal, span.dim_union) == (False, 56)
    report = Report(suite="all", results=())
    assert report.suite == "all" and report.results == ()
    assert cl7_basis().gamma5 is None
    gammas = dirac_gammas()
    again = GammaBasis(gammas.signature, gammas.gammas, gamma5=gammas.gamma5)
    assert again == gammas
    assert GammaBasis(EUCLIDEAN, ()) == GammaBasis(EUCLIDEAN, (), None)


@pytest.mark.parametrize("args, kwargs", [
    ((8,), {}), ((8, 0, 1), {}), ((8,), {"p": 0}), ((8, 0), {"r": 1}),
    ((), {"p": 8}),
])
def test_a_record_needs_each_field_exactly_once(args, kwargs):
    with pytest.raises(TypeError, match=r"Signature takes the fields \(p, q\)"):
        Signature(*args, **kwargs)


def test_reprs_name_every_field():
    assert repr(EUCLIDEAN) == "Signature(p=8, q=0)"
    assert str(EUCLIDEAN) == "(8,0)"
    assert (repr(CheckResult("01", "c", "pass", "d"))
            == "CheckResult(check_id='01', claim='c', status='pass', "
               "detail='d')")


def test_check_03_embeds_the_span_report_repr(monkeypatch):
    unequal = SpanReport(equal=False, dim_first=28, dim_second=28,
                         dim_union=56)
    monkeypatch.setattr(representations, "same_span",
                        lambda first, second: unequal)
    failures = checks._Failures()
    checks._check_03(checks._Fixtures(EUCLIDEAN), failures)
    text = "SpanReport(equal=False, dim_first=28, dim_second=28, dim_union=56)"
    assert f"V and L spans differ: {text}" in failures
    assert f"V and R spans differ: {text}" in failures


# -- the parser ------------------------------------------------------------------

HELP_SHA256 = {
    (): "e4016c4b7fbb160fe2230525f0528a7e86025694a0caca9a4f3be1213a5e135d",
    ("verify",): "ab6c079a02a1f46ef7827dd00f74c346c4ef0f21d9886f22a9fbb2e5335245ce",
    ("emit",): "df4adce71f1a158dd810bff91ceeebc2668033705b0e39628e0b78a90d86924c",
}


@pytest.mark.parametrize("verb", sorted(HELP_SHA256))
def test_help_text_is_pinned(monkeypatch, capsys, verb):
    monkeypatch.setenv("COLUMNS", "80")
    for flag in ("--help", "-h"):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*verb, flag])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[verb], flag


def test_parser_choices_are_the_checks_names():
    choices = {action.dest: action.choices
               for action in cli._VERBS["verify"]._actions}
    assert tuple(choices["suite"]) == checks.SUITES
    assert tuple(choices["inject_fault"]) == tuple(checks.FAULTS)
