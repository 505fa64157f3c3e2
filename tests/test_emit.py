"""JSON round trips, the indented JSON writer and LaTeX rendering."""

import ast
import contextlib
import importlib.util
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from triality import cli, emit
from triality.clifford import EUCLIDEAN, LORENTZIAN, cl7_basis
from triality.emit import (dumps, matrix_from_json, matrix_to_json,
                           matrix_to_latex, scalar_from_json, scalar_to_json,
                           scalar_to_latex)
from triality.field import (HALF, I, OMEGA, SQRT2, SQRT3, SQRT6, ZERO,
                            ExactScalar, from_parts, rational)
from triality.matrix import Matrix, anticommutator
from triality.outer import outer_h, outer_op, outer_t
from triality.subalgebras import g2_basis

SRC = Path(__file__).resolve().parent.parent / "src" / "triality"


def test_scalar_json_schema():
    x = HALF + I * SQRT3
    obj = scalar_to_json(x)
    assert obj == {"re": ["1/2", "0/1", "0/1", "0/1"],
                   "im": ["0/1", "0/1", "1/1", "0/1"]}
    assert scalar_from_json(obj) == x


MALFORMED = [
    {"re": [0.1, 0, 0, 0], "im": [0, 0, 0, 0]},          # floats leak
    {"re": ["1"] * 5, "im": ["0"] * 3},                  # misaligned
    {"re": ["1/2", "0/1", "0/1"], "im": ["0/1"] * 4},    # too short
    {"re": ["1/0"] + ["0/1"] * 3, "im": ["0/1"] * 4},    # zero denominator
    {"re": ["0.5"] + ["0/1"] * 3, "im": ["0/1"] * 4},    # not p/q
    {"re": ["0/1"] * 4},                                 # no imaginary part
]


@pytest.mark.parametrize("obj", MALFORMED)
def test_scalar_json_needs_four_exact_strings_per_part(obj):
    with pytest.raises(ValueError):
        scalar_from_json(obj)


@pytest.mark.parametrize("obj", MALFORMED)
def test_matrix_json_checks_every_entry(obj):
    zero = scalar_to_json(ZERO)
    for rows in ([[zero, zero], [zero, obj]], [[obj, zero], [obj, zero]]):
        with pytest.raises(ValueError):
            matrix_from_json(rows)


def test_zero_encodes_as_zero_over_one():
    assert scalar_to_json(ZERO)["re"] == ["0/1"] * 4


def test_matrix_round_trip_preserves_invariants():
    g2 = cl7_basis()[1]
    back = matrix_from_json(matrix_to_json(g2))
    assert back == g2
    assert anticommutator(back, back) == Matrix.identity(8).scale(rational(2))


def test_core_round_trips():
    for op in (outer_h(), outer_t()):
        assert matrix_from_json(matrix_to_json(op.core)) == op.core


def test_scalar_latex():
    assert scalar_to_latex(ZERO) == "0"
    assert scalar_to_latex(HALF) == r"\frac{1}{2}"
    assert scalar_to_latex(-SQRT2 * HALF) == r"-\frac{\sqrt{2}}{2}"
    assert scalar_to_latex(I * SQRT3) == r"i \sqrt{3}"
    x = from_parts(re=(Fraction(-1, 2),) + (0,) * 3,
                   im=(0, 0, Fraction(1, 2), 0))
    assert scalar_to_latex(x) == r"-\frac{1}{2}+\frac{i \sqrt{3}}{2}"


def test_matrix_latex_is_a_pmatrix():
    tex = matrix_to_latex(Matrix.identity(2))
    assert tex == r"\begin{pmatrix} 1 & 0 \\ 0 & 1 \end{pmatrix}"


# -- text and LaTeX against the dense renderers -------------------------------

EMIT_CASES = [(obj, sig) for obj, (signed, build) in cli._OBJECTS.items() if build
              for sig in ((EUCLIDEAN, LORENTZIAN) if signed else (None,))]


def test_the_object_table_is_the_benchmark_sweep():
    """The library sweep in ``bench/workloads.py`` requests each emit
    object, in each signature when it takes one."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", SRC.parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert tuple(cli._OBJECTS) == cli.EMIT_OBJECTS == workloads.EMIT_OBJECTS
    assert ({obj for obj, (signed, _) in cli._OBJECTS.items() if signed}
            == set(workloads.SIGNED))


@pytest.mark.parametrize("obj,signature", EMIT_CASES,
                         ids=[f"{obj} {sig}" if sig else obj for obj, sig in EMIT_CASES])
def test_every_emitted_matrix_renders_as_the_dense_oracles(obj, signature):
    for name, m in cli._OBJECTS[obj][1](signature):
        assert str(m) == oracles.dense_matrix_text(m), name
        assert matrix_to_latex(m) == oracles.dense_matrix_latex(m), name


EDGE_MATRICES = {
    "zero": Matrix.zero(3),
    "zero 1x1": Matrix.zero(1),
    "no zero entry": Matrix([[1, -2, HALF], [SQRT2, I, -I * SQRT3],
                             [OMEGA, 3, -HALF * SQRT2]]),
    "mixed width": Matrix([[0, -HALF + I * SQRT3, 0, 7],
                           [12345, 0, -I, 0],
                           [0, 0, SQRT2 * rational(-7, 3), 0],
                           [-1, OMEGA, 0, I * SQRT6 * rational(5, 12)]]),
}


@pytest.mark.parametrize("m", EDGE_MATRICES.values(), ids=EDGE_MATRICES.keys())
def test_edge_matrices_render_as_the_dense_oracles(m):
    assert str(m) == oracles.dense_matrix_text(m)
    assert matrix_to_latex(m) == oracles.dense_matrix_latex(m)


SPINOR_LEFT_LORENTZ = ["emit", "--object", "spinor-left", "--signature", "1,7"]


@pytest.mark.parametrize("argv,owner,name,count", [
    (SPINOR_LEFT_LORENTZ + ["--format", "text"], ExactScalar, "__str__", 84),
    (SPINOR_LEFT_LORENTZ + ["--format", "latex"], emit, "scalar_to_latex", 84),
    (["emit", "--object", "su3-blocks", "--format", "latex"], emit,
     "scalar_to_latex", 48),
], ids=["spinor-left 1,7 text", "spinor-left 1,7 latex", "su3-blocks latex"])
def test_emit_renders_each_distinct_entry_once_per_matrix(monkeypatch, argv, owner,
                                                         name, count):
    """An exact count: each matrix renders its distinct nonzero entries
    once (1,792 renders for spinor-left and 686 for su3-blocks when every
    cell was rendered)."""
    calls = 0
    render = getattr(owner, name)

    def counted(x):
        nonlocal calls
        calls += 1
        return render(x)

    monkeypatch.setattr(owner, name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0 and calls == count


# -- the indented JSON writer ------------------------------------------------

SPECIAL_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", "☃", "𝄞", 'a"b\\c\n']
json_scalars = (st.none() | st.booleans() | st.sampled_from([0, 1, True, False])
                | st.integers() | st.integers(max_value=-2**64)
                | st.sampled_from(SPECIAL_TEXT) | st.text(max_size=6))


def _containers(children):
    return (st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4) | st.sampled_from(SPECIAL_TEXT),
                              children, max_size=4))


@st.composite
def payloads(draw):
    """Nested payloads in which a few drawn objects recur: ``sampled_from``
    hands out the object itself, so one list or dict can sit at equal and
    at different depths."""
    shared = draw(st.lists(st.recursive(json_scalars, _containers, max_leaves=6),
                           min_size=1, max_size=3))
    leaves = json_scalars | st.sampled_from(shared)
    return draw(st.recursive(leaves, _containers, max_leaves=24))


@given(payloads())
@settings(max_examples=100, deadline=None)
def test_dumps_matches_the_stdlib(payload):
    assert dumps(payload) == oracles.indented_json(payload)


def test_dumps_reuses_shared_containers_byte_for_byte():
    row = [True, 1, False, 0, None, -10**40]
    entry = {"re": ["1/2", "0/1"], "im": [], "q": 'a"\\\t\x01é☃'}
    payload = {"rows": [row, row, [row, entry], entry, entry],
               "same": [entry] * 3, "empty": [{}, [], ""], "deep": {"x": [[row]]}}
    assert dumps(payload) == oracles.indented_json(payload)
    assert dumps(payload) == dumps(payload)


@pytest.mark.parametrize("bad", [1.5, (1, 2), {1: "x"}, [{"a": [0.0]}]])
def test_dumps_rejects_types_outside_the_payload(bad):
    with pytest.raises(TypeError):
        dumps(bad)


SHARED_ENTRY_MATRICES = ([outer_op(name).core for name in ("H", "K", "T", "conj")]
                         + list(g2_basis().lambdas))


@pytest.mark.parametrize("m", SHARED_ENTRY_MATRICES)
def test_equal_matrix_entries_share_one_dict(m):
    rows = matrix_to_json(m)
    ids = {}
    for i, row in enumerate(rows):
        for j, obj in enumerate(row):
            ids.setdefault(m[i, j], set()).add(id(obj))
    assert all(len(group) == 1 for group in ids.values())
    assert len(set().union(*ids.values())) == len(ids)
    assert matrix_from_json(rows) == m


MAP_T_L = ["map", "--op", "T", "--from", "L"]
GRADE_LORENTZ = ["grade", "--signature", "1,7"]
LEFT_LORENTZ_JSON = ["emit", "--object", "spinor-left", "--signature", "1,7",
                     "--format", "json"]


@pytest.mark.parametrize("argv", [LEFT_LORENTZ_JSON, MAP_T_L],
                         ids=["emit spinor-left 1,7", "map T L"])
def test_emit_encodes_each_distinct_scalar_once_per_payload(monkeypatch, argv):
    """An exact count: each payload encodes its 5 distinct scalars once
    (1,792 when every entry was encoded, 112 when once per matrix)."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return scalar_to_json(x)

    monkeypatch.setattr(emit, "scalar_to_json", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0 and calls == 5


def _payloads(monkeypatch, *requests):
    """The payload each request hands to ``dumps``; all are kept alive, so
    no two distinct objects among them can share an id."""
    seen = []

    def capture(payload):
        seen.append(payload)
        return dumps(payload)

    monkeypatch.setattr(cli, "dumps", capture)
    for argv in requests:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    return seen


def _is_scalar(obj):
    return isinstance(obj, dict) and obj.keys() == {"re", "im"}


def _lists_and_dicts(obj):
    """Every list and dict of a payload, each time it occurs."""
    stack = [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, (list, dict)):
            yield o
            stack.extend(o if isinstance(o, list) else o.values())


@pytest.mark.parametrize("argv", [MAP_T_L, GRADE_LORENTZ, ["su3"], LEFT_LORENTZ_JSON],
                         ids=["map T L", "grade 1,7", "su3", "emit spinor-left 1,7"])
def test_equal_rows_and_scalars_of_a_payload_are_one_object(monkeypatch, argv):
    (payload,) = _payloads(monkeypatch, argv)
    ids, rows = {}, 0
    for o in _lists_and_dicts(payload):
        if _is_scalar(o) or (isinstance(o, list) and o and all(map(_is_scalar, o))):
            ids.setdefault(oracles.indented_json(o), set()).add(id(o))
            rows += not _is_scalar(o)
    assert rows and all(len(group) == 1 for group in ids.values())


def test_a_map_coefficient_is_the_dict_of_its_equal_matrix_entry(monkeypatch):
    (payload,) = _payloads(monkeypatch, MAP_T_L)
    entries = {id(x) for item in payload["items"] for row in item["matrix"] for x in row}
    coefficients = [c["coefficient"] for item in payload["items"]
                    for c in item["coefficients"]]
    assert len(coefficients) == 112 and all(id(c) in entries for c in coefficients)


def test_two_payloads_share_no_object(monkeypatch):
    first, second = _payloads(monkeypatch, MAP_T_L, MAP_T_L)
    assert first == second
    ids = [{id(o) for o in _lists_and_dicts(payload)} for payload in (first, second)]
    assert not ids[0] & ids[1]


@pytest.mark.parametrize("argv", [MAP_T_L, GRADE_LORENTZ, ["su3"]],
                         ids=["map T L", "grade 1,7", "su3"])
def test_dumps_of_a_shared_payload_matches_the_stdlib(monkeypatch, argv):
    (payload,) = _payloads(monkeypatch, argv)
    assert dumps(payload) == oracles.indented_json(payload)


def _indented_dumps_calls(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps"
            and any(k.arg == "indent" for k in node.keywords)]


def _imports_json(tree):
    return any((isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "json" for a in node.names))
               or (isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "json")
               for node in ast.walk(tree))


def test_indented_json_has_one_writer():
    """No module calls ``json.dumps(..., indent=...)``, whose pure-Python
    encoder ``emit.dumps`` replaces, and ``cli`` does not import json."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert "cli.py" in trees and "emit.py" in trees
    assert not [name for name, tree in trees.items() if _indented_dumps_calls(tree)]
    assert not _imports_json(trees["cli.py"])
