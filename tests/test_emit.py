"""JSON round trips, the indented JSON writer and LaTeX rendering."""

import ast
import contextlib
import importlib.util
import io
import json
import tracemalloc
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from triality import cli, emit
from triality.clifford import EUCLIDEAN, LORENTZIAN, cl7_basis
from triality.emit import (dumps_line, matrix_from_json, matrix_to_json,
                           matrix_to_latex, scalar_to_json, scalar_to_latex)
from triality.field import (HALF, I, OMEGA, ONE, SQRT2, SQRT3, SQRT6, ZERO,
                            ExactScalar, from_parts, rational)
from triality.linalg import Subspace
from triality.matrix import Matrix, anticommutator
from triality.outer import apply_outer, outer_h, outer_op, outer_t, quartet_terms
from triality.representations import basis, spinor_bases, vector_basis
from triality.subalgebras import g2_basis

SRC = Path(__file__).resolve().parent.parent / "src" / "triality"


def test_scalar_json_schema():
    x = HALF + I * SQRT3
    obj = scalar_to_json(x)
    assert obj == {"re": ["1/2", "0/1", "0/1", "0/1"],
                   "im": ["0/1", "0/1", "1/1", "0/1"]}
    assert oracles.scalar_from_json(obj) == x


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
        oracles.scalar_from_json(obj)


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
    # 1/2 + sqrt2 is stored as (1 + 2 sqrt2) / 2: each term is reduced on
    # its own, and a later negative term joins with its own "-"
    assert scalar_to_latex(HALF + SQRT2) == r"\frac{1}{2}+\sqrt{2}"
    assert scalar_to_latex(ONE - SQRT2) == r"1-\sqrt{2}"


# Two to four nonzero coordinates whose denominators share factors, so the
# stored numerators over the common ``den`` often reduce term by term.
_TERMS = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                   st.sampled_from([1, 2, 3, 4, 6]))
_MULTI_TERM = st.dictionaries(st.integers(0, 7), _TERMS, min_size=2, max_size=4).map(
    lambda d: tuple(d.get(k, Fraction(0)) for k in range(8)))


@given(_MULTI_TERM)
@example((Fraction(1, 2), Fraction(1)) + (Fraction(0),) * 6)
@example((Fraction(1), Fraction(-1)) + (Fraction(0),) * 6)
@settings(max_examples=100, deadline=None)
def test_multi_term_scalar_latex_matches_the_dense_oracle(a):
    """Each term is reduced and signed on its own, as the dense oracle
    writes it from the Fraction coordinates."""
    assert scalar_to_latex(ExactScalar(a)) == oracles.dense_scalar_latex(a)


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
    (SPINOR_LEFT_LORENTZ + ["--format", "text"], ExactScalar, "__str__", 5),
    (SPINOR_LEFT_LORENTZ + ["--format", "latex"], emit, "scalar_to_latex", 5),
    (["emit", "--object", "su3-blocks", "--format", "text"], ExactScalar,
     "__str__", 15),
    (["emit", "--object", "su3-blocks", "--format", "latex"], emit,
     "scalar_to_latex", 15),
], ids=["spinor-left 1,7 text", "spinor-left 1,7 latex", "su3-blocks text",
        "su3-blocks latex"])
def test_emit_renders_each_distinct_entry_once_per_payload(monkeypatch, argv, owner,
                                                           name, count):
    """An exact count: a text or LaTeX payload renders each distinct entry of
    its matrices once, and ZERO once (1,792 renders for spinor-left and 686
    for su3-blocks when every cell was rendered; 84 and 48 when each matrix
    rendered its own nonzero entries).  A second request renders them all
    again: no text outlives its payload."""
    calls = 0
    render = getattr(owner, name)

    def counted(x):
        nonlocal calls
        calls += 1
        return render(x)

    monkeypatch.setattr(owner, name, counted)
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert calls == 2 * count


# Entries of different widths, so that matrices drawn together differ in
# their widest entry while sharing sparse rows.
_CELLS = st.sampled_from([ZERO, ZERO, ONE, -ONE, I, HALF, rational(1, 3),
                          HALF * SQRT2, -HALF + I * SQRT3])
_SMALL_MATRICES = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_CELLS, min_size=n, max_size=n),
                       min_size=n, max_size=n).map(Matrix))
_WIDTHS_APART = [Matrix([[1, 0], [0, 0]]), Matrix([[1, 0], [0, -HALF + I * SQRT3]])]


@given(st.lists(_SMALL_MATRICES, min_size=1, max_size=4))
@example(_WIDTHS_APART)
@example([Matrix([[HALF, 1], [rational(1, 3), 1]])])
@settings(max_examples=60, deadline=None)
def test_a_text_payload_renders_each_matrix_as_the_dense_oracles(mats):
    """One text payload and one LaTeX payload of drawn matrices, which
    share one memo of row texts, are the dense oracles of each matrix in
    turn.  A row's text holds its cells padded to its matrix's widest
    entry, so the text rows' key holds that width: the row ``[1, 0]`` is
    ``[ 1  0 ]`` in the first matrix of the first example and padded wider
    in the second.  In the second example two rows differ only in the
    denominator of one entry, so a row's key holds each entry's ``den``."""
    named = [(f"m_{k}", m) for k, m in enumerate(mats)]
    assert cli._render("x", named, "text", None) == "".join(
        f"{name} =\n{oracles.dense_matrix_text(m)}\n\n" for name, m in named)
    assert cli._render("x", named, "latex", None) == "".join(
        f"% {name}\n{oracles.dense_matrix_latex(m)}\n" for name, m in named)


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
def test_dumps_line_matches_the_stdlib(payload):
    assert dumps_line(payload) == oracles.indented_json(payload)


def test_dumps_line_reuses_shared_containers_byte_for_byte():
    row = [True, 1, False, 0, None, -10**40]
    entry = {"re": ["1/2", "0/1"], "im": [], "q": 'a"\\\t\x01é☃'}
    payload = {"rows": [row, row, [row, entry], entry, entry],
               "same": [entry] * 3, "empty": [{}, [], ""], "deep": {"x": [[row]]}}
    assert dumps_line(payload) == oracles.indented_json(payload)
    assert dumps_line(payload) == dumps_line(payload)


@pytest.mark.parametrize("bad", [1.5, (1, 2), {1: "x"}, [{"a": [0.0]}]])
def test_dumps_line_rejects_types_outside_the_payload(bad):
    with pytest.raises(TypeError):
        dumps_line(bad)


class _Level(IntEnum):
    LOW = 1
    HIGH = -20


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


WRITES = "dumps_line writes dict, list, str, int, bool, None, Matrix and ExactScalar, not "


@pytest.mark.parametrize("bad, message", [
    (1.5, WRITES + "float"),
    ([{"a": [(1, 2)]}], WRITES + "tuple"),
    ({1: "x"}, "dumps_line takes str keys, not int"),
    ({"a": 1, 2: "b"}, "dumps_line takes str keys, not int"),
    ({"a": {"b": [], None: 1}}, "dumps_line takes str keys, not NoneType"),
    (vector_basis(EUCLIDEAN), WRITES + "LieBasis"),
    ({"s": Subspace.from_vectors([{0: HALF}], 4)}, WRITES + "Subspace"),
    ([(Matrix.identity(2),)], WRITES + "tuple"),
    (_Str("b"), WRITES + "_Str"),
    ([_Int(7)], WRITES + "_Int"),
    ({"a": _Level.HIGH}, WRITES + "_Level"),
    (_Dict(), WRITES + "_Dict"),
    ([True, _List()], WRITES + "_List"),
    ({_Str("k"): 1}, "dumps_line takes str keys, not _Str"),
], ids=["float", "tuple", "int key", "mixed keys", "None key at depth", "LieBasis",
        "Subspace", "tuple of a Matrix", "str subclass", "int subclass", "IntEnum",
        "dict subclass", "list subclass", "str subclass key"])
def test_dumps_line_names_what_it_rejects(bad, message):
    """A subclass of a type the writer takes is rejected like any other
    type: only the exact types are written."""
    with pytest.raises(TypeError) as caught:
        dumps_line(bad)
    assert str(caught.value) == message


def _nested(depth, leaf):
    """``leaf`` inside ``depth`` containers, lists and objects in turn."""
    for k in range(depth):
        leaf = [leaf, k] if k % 2 else {"k": leaf, "d": k}
    return leaf


@pytest.mark.parametrize("depth", [101, 150])
def test_dumps_line_lays_out_any_depth(depth):
    """Past 100 levels the indent still grows by two spaces a level, for
    plain nodes and for a matrix and a scalar."""
    m = g2_basis().lambdas[0]
    entry = next(x for row in m.rows for x in row.values())
    assert dumps_line(_nested(depth, [])) == oracles.indented_json(_nested(depth, []))
    payload = _nested(depth, [m, entry])
    tree = _nested(depth, [matrix_to_json(m), scalar_to_json(entry)])
    assert dumps_line(payload) == oracles.indented_json(tree)


def test_dumps_line_writes_empty_containers_at_depth():
    payload = {"a": [[], {}, [[]], [{}], {"b": {"c": []}}], "e": {}, "f": [],
               "g": [[[[{"h": [[], {}]}]]]]}
    assert dumps_line(payload) == oracles.indented_json(payload)
    assert dumps_line([]) == "[]\n" and dumps_line({}) == "{}\n"


def test_a_0x0_matrix_is_empty_in_every_layout():
    empty = Matrix.zero(0)
    assert dumps_line({"m": empty, "l": [empty]}) == \
        oracles.indented_json({"m": [], "l": [[]]})
    assert str(empty) == ""
    assert matrix_to_latex(empty) == oracles.dense_matrix_latex(empty)


SHARED_ENTRY_MATRICES = ([outer_op(name).core for name in ("H", "K", "T", "conj")]
                         + list(g2_basis().lambdas))


@pytest.mark.parametrize("m", SHARED_ENTRY_MATRICES)
def test_matrices_with_repeated_entries_round_trip(m):
    assert matrix_from_json(matrix_to_json(m)) == m


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


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


PAYLOAD_REQUESTS = {
    "map T L": MAP_T_L,
    "grade 1,7": GRADE_LORENTZ,
    "su3": ["su3"],
    "s3 8,0": ["s3", "--signature", "8,0"],
    "emit spinor-left 1,7 json": LEFT_LORENTZ_JSON,
    "emit gammas-cl8 json": ["emit", "--object", "gammas-cl8", "--format", "json"],
    "emit graded 1,7 json": ["emit", "--object", "graded", "--signature", "1,7",
                             "--format", "json"],
    "emit g2-constraints json": ["emit", "--object", "g2-constraints",
                                 "--format", "json"],
    "map conj R": ["map", "--op", "conj", "--from", "R"],
    "s3 1,7": ["s3", "--signature", "1,7"],
    "verify euclidean json": ["verify", "--suite", "euclidean", "--format", "json"],
}


@pytest.mark.parametrize("argv", PAYLOAD_REQUESTS.values(), ids=PAYLOAD_REQUESTS)
def test_a_payload_on_stdout_is_the_stdlib_layout(argv):
    out = _stdout(argv)
    assert out == oracles.indented_json(json.loads(out))


class _Discard:
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("argv, size", [(MAP_T_L, 513_626), (LEFT_LORENTZ_JSON, 472_361)],
                         ids=["map T L", "emit spinor-left 1,7"])
def test_a_payload_is_copied_once(argv, size):
    """The traced peak of a warm JSON request stays under two copies of its
    text: the newline is the last piece of the payload's one join.  With
    ``dumps(payload) + "\\n"``, which copied the joined text once more,
    ``map T L`` peaked at 1.21 MB and ``emit`` at 1.02 MB; with one join,
    at 0.76 MB and 0.57 MB."""
    text = _stdout(argv)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == size and peak < 2 * size


def _rendered_scalars(monkeypatch):
    """The scalars whose texts are rendered from now on, in order."""
    scalars, render = [], emit.scalar_to_json

    def scalar(x):
        scalars.append(x)
        return render(x)

    monkeypatch.setattr(emit, "scalar_to_json", scalar)
    return scalars


def _renders(monkeypatch, argv):
    """The scalars whose texts a request renders, in order, and the keys of
    the row texts it renders: each key that a call of the grid writer adds
    to the memo under the call's ``(tag, n)``."""
    scalars, rows = _rendered_scalars(monkeypatch), []
    grid = emit._grid

    def counted(m, tag, cell, layout, append, texts):
        before = set(texts)
        grid(m, tag, cell, layout, append, texts)
        rows.extend(k for k in texts.keys() - before if k[:2] == (tag, m.n))

    monkeypatch.setattr(emit, "_grid", counted)
    _stdout(argv)
    return scalars, rows


@pytest.mark.parametrize("argv, scalars, rows", [
    (MAP_T_L, 5, 31), (LEFT_LORENTZ_JSON, 5, 31), (GRADE_LORENTZ, 7, 41),
    (["su3"], 22, 58)], ids=["map T L", "emit spinor-left 1,7", "grade 1,7", "su3"])
def test_a_payload_renders_each_scalar_and_row_text_once_per_depth(
        monkeypatch, argv, scalars, rows):
    """Exact counts: the 224 rows of ``map T L`` take 31 row texts and 5
    scalar texts, and every row and scalar written again reuses its text.
    A second request renders them all again: no text outlives its payload."""
    counts = [tuple(map(len, _renders(monkeypatch, argv))) for _ in range(2)]
    assert counts == [(scalars, rows)] * 2


def test_a_map_coefficient_reuses_the_text_of_its_equal_entry(monkeypatch):
    """The coefficients sit at the depth of the matrix entries, so they
    render nothing of their own: the scalars rendered are exactly the
    distinct entries of the 28 matrices, each once."""
    rendered, _ = _renders(monkeypatch, MAP_T_L)
    op = outer_op("T")
    mapped = apply_outer(op, basis("L", op.signature))
    entries = {(x.den, x.nums) for m in mapped.matrices() for row in m.rows
               for x in (*row.values(), ZERO)}
    coefficients = {(c.den, c.nums) for terms in quartet_terms(op.core).values()
                    for _, c in terms}
    assert coefficients and coefficients <= entries
    assert sorted((x.den, x.nums) for x in rendered) == sorted(entries)


def _zero_rule_renders(monkeypatch, payload):
    """The scalars whose texts one ``dumps_line`` call renders, in order,
    writing ``payload(lambda m: m)`` byte for byte as the stdlib writes
    ``payload(matrix_to_json)``."""
    want = oracles.indented_json(payload(matrix_to_json))
    rendered = _rendered_scalars(monkeypatch)
    assert dumps_line(payload(lambda m: m)) == want
    return [(x.den, x.nums) for x in rendered]


def test_a_row_renders_zero_only_for_an_empty_cell(monkeypatch):
    """Exact counts: a matrix with no zero cell renders each distinct entry
    once per depth and never ZERO; with zero cells, ZERO once per depth."""
    zero = (ZERO.den, ZERO.nums)
    full = EDGE_MATRICES["no zero entry"]
    distinct = {(x.den, x.nums) for row in full.rows for x in row.values()}
    rendered = _zero_rule_renders(
        monkeypatch, lambda f: [f(full), f(full), [f(full)]])
    assert len(distinct) == 9 and zero not in rendered
    assert len(rendered) == 2 * 9 and set(rendered) == distinct

    mixed = EDGE_MATRICES["mixed width"]
    rendered = _zero_rule_renders(
        monkeypatch, lambda f: [f(mixed), [f(mixed), f(mixed)], f(Matrix.zero(3))])
    distinct = {(x.den, x.nums) for row in mixed.rows for x in row.values()}
    assert len(distinct) == 8 and rendered.count(zero) == 2
    assert len(rendered) == 2 * 9 and set(rendered) == distinct | {zero}


def test_rows_that_share_an_entry_keep_their_own_texts():
    """Two-entry rows that end in the same entry, and a one-entry row that
    holds it, each get their own text: a row's key holds every entry."""
    m = Matrix.from_entries(3, {(0, 0): HALF, (0, 2): I, (1, 1): HALF,
                                (1, 2): I, (2, 2): I})
    assert dumps_line([m, m]) == oracles.indented_json([matrix_to_json(m)] * 2)


LEAF_MATRICES = ([m for sig in (EUCLIDEAN, LORENTZIAN)
                  for b in (vector_basis(sig), *spinor_bases(sig)) for m in b.matrices()]
                 + SHARED_ENTRY_MATRICES)


_WRAPPERS = st.lists(st.tuples(st.booleans(), st.lists(json_scalars, max_size=2)),
                     max_size=5)


def _wrap(x, wrappers):
    """``x`` inside one list (True) or dict (False) per wrapper, each with
    its drawn siblings."""
    for in_list, siblings in wrappers:
        x = [*siblings, x] if in_list else {"k": x, **dict(zip("abc", siblings))}
    return x


@given(st.sampled_from(LEAF_MATRICES), st.data())
@settings(max_examples=100, deadline=None)
def test_a_matrix_leaf_writes_the_stdlib_bytes_at_its_depth(m, data):
    """``dumps_line`` writes a matrix on its own, then in one call at two drawn
    depths with one of its entries beside them, byte for byte as the
    stdlib writes the trees of ``matrix_to_json`` and ``scalar_to_json``."""
    entry = data.draw(st.sampled_from([ZERO, *(x for row in m.rows for x in row.values())]))
    wrappers = [data.draw(_WRAPPERS) for _ in range(3)]
    assert dumps_line(m) == oracles.indented_json(matrix_to_json(m))
    leaves = (m, m, entry)
    trees = (matrix_to_json(m), matrix_to_json(m), scalar_to_json(entry))
    assert dumps_line([_wrap(x, w) for x, w in zip(leaves, wrappers)]) == \
        oracles.indented_json([_wrap(x, w) for x, w in zip(trees, wrappers)])


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


def _copies_a_dumps_result(node):
    """``dumps_line(...) + x`` or ``x + dumps_line(...)``, or the same with
    ``dumps``: the payload's text copied once more after its join."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and any(isinstance(side, ast.Call)
                    and getattr(side.func, "id", getattr(side.func, "attr", None))
                    in ("dumps", "dumps_line")
                    for side in (node.left, node.right)))


def test_no_payload_text_is_copied_after_its_join():
    """A payload's trailing newline is the last piece of its one join
    (``emit.dumps_line``), so no module adds a string to a ``dumps_line``
    or ``json.dumps`` result."""
    sites = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _copies_a_dumps_result(node)]
    assert sites == []


def test_indented_json_has_one_writer():
    """No module calls ``json.dumps(..., indent=...)``, whose pure-Python
    encoder ``emit.dumps_line`` replaces, and ``cli`` does not import json."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert "cli.py" in trees and "emit.py" in trees
    assert not [name for name, tree in trees.items() if _indented_dumps_calls(tree)]
    assert not _imports_json(trees["cli.py"])
