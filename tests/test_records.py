"""The records keep what their callers rely on, and the CLI its help text.

Records are ``__slots__`` classes on one shared base with one equality
rule: every record compares by class and field values, and hashes exactly
when all its field values do.  Callers rely on that hashing (a
``Signature`` keys dicts and caches), on immutability, on keyword
construction and on the repr text that a failure message embeds.
"""

import hashlib
import importlib
import pkgutil
from types import MappingProxyType

import pytest

import triality
from triality import checks, cli, representations
from triality._record import Record
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
    """One maker per record class; two calls give equal but distinct
    instances, with field types as the package fills them in."""
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
        lambda: GradedBasis("H", (m,), (), (), ({0: ONE},)),
        lambda: LieBasis("V", EUCLIDEAN, MappingProxyType({(0, 1): m})),
        lambda: IntersectionSystem(Subspace.from_vectors([{0: ONE}], 2), (),
                                   28, 42),
        lambda: G2Basis((m,)),
        lambda: Su3Embedding(m, (m,), ZERO),
        lambda: CoordSolver([m]),
    ]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("make", _value_records())
def test_value_records_compare_by_their_fields(make):
    """A record hashes exactly when every field value does: ``S3Closure``,
    ``Subspace``, ``StructureConstants``, ``GradedBasis``, ``LieBasis``,
    ``CoordSolver`` and an ``IntersectionSystem`` (through its
    ``Subspace``) hold dicts or a mapping proxy, so they raise."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    values = tuple(getattr(a, name) for name in a.__slots__)
    assert a != values
    if all(_hashable(value) for value in values):
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_every_record_is_listed_and_none_overrides_equality():
    for info in pkgutil.iter_modules(triality.__path__):
        importlib.import_module(f"triality.{info.name}")
    classes = Record.__subclasses__()
    assert set(classes) == {type(make()) for make in _value_records()}
    assert not [(cls.__qualname__, name) for cls in classes
                for name in ("__eq__", "__hash__", "__init_subclass__")
                if name in vars(cls)]


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


@pytest.mark.parametrize("make", _value_records())
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
