"""CLI behavior: exit codes, determinism, schema, round trips."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_checks_runner import _negate_gamma1_entry
from test_outputs import workloads

import triality.cli as cli
from triality.emit import matrix_from_json
from triality.matrix import Matrix, anticommutator
from triality.field import rational


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "triality.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def json_report():
    out = run_cli("verify", "--suite", "all", "--format", "json")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_verify_exit_zero_and_schema(json_report):
    assert json_report["schema"] == "triality-report/1"
    assert json_report["suite"] == "all"
    assert json_report["summary"]["fail"] == 0
    ids = [r["check_id"] for r in json_report["results"]]
    assert ids == sorted(ids)
    assert len(ids) == 17


def test_every_result_carries_a_claim(json_report):
    for r in json_report["results"]:
        assert r["claim"]
        assert r["status"] in ("pass", "fail", "reported")
        assert r["detail"]


def test_verify_text_format():
    out = run_cli("verify", "--suite", "euclidean")
    assert out.returncode == 0
    assert "[PASS" in out.stdout
    assert "suite=euclidean" in out.stdout.splitlines()[-1]


def test_emitted_basis_round_trips_and_reverifies():
    out = run_cli("emit", "--object", "gammas-cl7", "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    two = Matrix.identity(8).scale(rational(2))
    mats = [matrix_from_json(item["matrix"]) for item in payload["items"]]
    assert len(mats) == 7
    for m in mats:
        assert anticommutator(m, m) == two


def test_emit_h_matches_the_core():
    out = run_cli("emit", "--object", "H")
    payload = json.loads(out.stdout)
    from triality.outer import outer_h
    assert matrix_from_json(payload["items"][0]["matrix"]) == outer_h().core


def test_emit_constraints_json():
    out = run_cli("emit", "--object", "g2-constraints", "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["dimension"] == 14
    assert payload["rank"] == 28
    deps = {c["dependent"]: c["terms"] for c in payload["constraints"]}
    assert deps["b12"] == [{"coefficient": "1", "variable": "b47"},
                          {"coefficient": "1", "variable": "b56"}]


def test_emit_latex_vector():
    out = run_cli("emit", "--object", "vector", "--signature", "1,7",
                  "--format", "latex")
    assert out.returncode == 0
    assert out.stdout.count(r"\begin{pmatrix}") == 28


def test_emit_graded_latex_euclidean():
    out = run_cli("emit", "--object", "graded", "--format", "latex")
    assert out.returncode == 0
    assert out.stdout.count(r"\begin{pmatrix}") == 28


USAGE_ERRORS = [
    [],
    ["verify", "--suite", "bogus"],
    ["emit", "--object", "bogus"],
    ["emit", "--object", "H", "--signature", "1,7"],
    ["emit", "--object", "vector", "--signature", "9,9"],
    ["emit", "--object", "vector", "--signature", "(8,0)"],
    ["emit", "--object", "g2-constraints", "--signature", "8,0"],
    ["grade", "--signature", "(1,7)"],
    ["emit", "--object", "H", "extra"],
    ["emit", "--object", "H", "--version"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS,
                         ids=lambda argv: " ".join(argv) or "no verb")
def test_usage_errors_exit_64(argv):
    out = run_cli(*argv)
    assert out.returncode == 64
    assert out.stdout == "" and out.stderr


TOP_USAGE = "usage: triality [-h] [--version] {verify,emit,map,grade,s3,g2,su3} ...\n"


@pytest.mark.parametrize("argv, extra", [
    (["emit", "--object", "H", "extra"], "extra"),
    (["emit", "--object", "H", "--version"], "--version"),
    (["map", "--op", "H", "x", "--from", "V", "y"], "x y"),
])
def test_leftover_tokens_are_refused_by_the_top_level_parser(
        monkeypatch, capsys, argv, extra):
    """The verb's parser reads a verb's argv, but the top-level parser
    reports what it leaves, under the top-level usage line."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{TOP_USAGE}triality: error: unrecognized arguments: {extra}\n")


def _parsed(parse, argv):
    """What ``parse(argv)`` gives: the namespace as a dict, or else the
    ``SystemExit`` code, each with what was written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _agrees_with_the_top_level_parser(argv):
    assert (_parsed(cli._parse, list(argv))
            == _parsed(cli._PARSER.parse_args, list(argv))), argv


PARSE_CORPUS = [*workloads.LIBRARY_REQUESTS, *workloads.CLI_VERBS,
                *USAGE_ERRORS,
                ["emit", "--object=H"], ["emit", "--obj", "H"],
                ["emit", "--=x"], ["--", "emit"], ["-h", "emit"],
                ["--version", "emit"], ["emit", "--", "--object", "H"]]


def test_the_verb_parse_agrees_with_the_top_level_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in PARSE_CORPUS:
        _agrees_with_the_top_level_parser(argv)


def _tokens():
    """Every verb, option string and choice, each choice also as
    ``--opt=value``, each long option less its last letter, and the
    top-level parser's own tokens, ``--=x`` and one junk token."""
    tokens = [*cli._VERBS, "-h", "--version", "--", "--=x", "bogus"]
    for parser in cli._VERBS.values():
        for action in parser._actions:
            for option in action.option_strings:
                tokens += [option, option[:-1]] if option[1] == "-" else [option]
                tokens += [f"{option}={value}" for value in action.choices or ()]
            tokens += action.choices or ()
    return list(dict.fromkeys(tokens))


# a verb or nothing first, so that most draws reach a verb's parser
_ARGV = st.builds(lambda head, rest: head + rest,
                  st.sampled_from([[verb] for verb in cli._VERBS] + [[]]),
                  st.lists(st.sampled_from(_tokens()), max_size=7))


@settings(max_examples=200, deadline=None)
@given(_ARGV)
def test_drawn_argv_parse_as_the_top_level_parser_does(argv):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("COLUMNS", "80")
        _agrees_with_the_top_level_parser(argv)


def test_a_fault_the_suite_cannot_apply_exits_64():
    unused_fault = run_cli("verify", "--suite", "lorentzian",
                           "--inject-fault", "h-sign")
    assert unused_fault.returncode == 64
    assert unused_fault.stdout == "" and "h-sign" in unused_fault.stderr


def test_an_unwritable_out_is_refused_before_the_fault_check(tmp_path,
                                                               capsys):
    """``main`` checks ``--out`` before any handler runs, so of two usage
    errors in one request the unwritable path is the one reported."""
    path = str(tmp_path / "missing" / "x")
    assert cli.main(["verify", "--suite", "lorentzian", "--inject-fault",
                     "h-sign", "--out", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"triality: cannot write {path}: "
                            "No such file or directory\n")


def test_run_suite_rejects_a_fault_it_cannot_apply():
    from triality.checks import run_suite
    with pytest.raises(ValueError, match="does not run"):
        run_suite("lorentzian", fault="h-sign")
    with pytest.raises(ValueError, match="unknown fault"):
        run_suite("all", fault="bogus")
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_out_flag_writes_a_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("verify", "--suite", "lorentzian", "--format", "json",
                  "--out", str(target))
    assert out.returncode == 0 and out.stdout == ""
    data = json.loads(target.read_text())
    assert data["suite"] == "lorentzian"


def test_a_failed_su3_check_exits_1_and_writes_nothing(tmp_path, capsys,
                                                        monkeypatch):
    import triality.subalgebras as subalgebras
    from triality.errors import TrialityError

    def mismatch(*args, **kwargs):
        raise TrialityError("synthetic block mismatch")

    monkeypatch.setattr(subalgebras, "su3_embedding", mismatch)
    target = tmp_path / "blocks"
    target.write_bytes(b"earlier blocks\n")
    assert cli.main(["su3", "--out", str(target)]) == 1
    assert capsys.readouterr().err == (
        "su3 embedding check FAILED: synthetic block mismatch\n")
    assert target.read_bytes() == b"earlier blocks\n"


# one request per verb, with a builder it calls, patched in the module
# that triality.cli imports it from when the verb runs
_VERB_BUILDERS = [
    (["verify", "--suite", "all"], "checks.run_suite"),
    (["emit", "--object", "gammas-cl7"], "clifford.cl7_basis"),
    (["map", "--op", "H", "--from", "V"], "outer.apply_outer"),
    (["grade", "--signature", "8,0"], "outer.graded_basis"),
    (["s3", "--signature", "1,7"], "outer.s3_closure"),
    (["g2", "--emit", "lambda"], "subalgebras.g2_basis"),
    (["su3"], "subalgebras.su3_embedding"),
]
_UNWRITABLE = ([(argv, "missing/report") for argv, _ in _VERB_BUILDERS]
               + [(["emit", "--object", "K"], "")])


@pytest.mark.parametrize("argv,target", _UNWRITABLE,
                         ids=[" ".join(argv + ["--out", repr(target)])
                              for argv, target in _UNWRITABLE])
def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, argv,
                                                    target):
    """An empty path is refused too, not taken for stdout."""
    path = str(tmp_path / target) if target else ""
    assert cli.main([*argv, "--out", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"triality: cannot write {path}: "
                            "No such file or directory\n")
    assert not (tmp_path / "missing").exists()


def _failing_run(monkeypatch):
    import triality.checks as checks

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic construction failure")

    monkeypatch.setattr(checks, "run_suite", boom)


def test_verify_finds_an_unwritable_out_before_the_run(tmp_path, capsys,
                                                      monkeypatch):
    """A run that would raise is never reached: the path is refused first."""
    _failing_run(monkeypatch)
    (tmp_path / "file").write_text("")
    for target, reason in ((tmp_path / "missing" / "report",
                            "No such file or directory"),
                           (tmp_path, "Is a directory"),
                           (tmp_path / "file" / "report", "Not a directory")):
        assert cli.main(["verify", "--out", str(target)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"triality: cannot write {target}: {reason}\n"


def test_out_keeps_its_bytes_when_the_run_errors(tmp_path, capsys,
                                                 monkeypatch):
    _failing_run(monkeypatch)
    target = tmp_path / "report"
    target.write_bytes(b"earlier report\n")
    assert cli.main(["verify", "--out", str(target)]) == 2
    assert "synthetic construction failure" in capsys.readouterr().err
    assert target.read_bytes() == b"earlier report\n"


def test_construction_error_exits_2(monkeypatch, capsys):
    import importlib

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic construction failure")

    for argv, builder in _VERB_BUILDERS:
        module, name = builder.split(".")
        monkeypatch.setattr(importlib.import_module(f"triality.{module}"),
                            name, boom)
        assert cli.main(argv) == 2, argv
        assert "synthetic construction failure" in capsys.readouterr().err


def test_a_check_that_raises_is_a_failed_row_with_a_report(
        monkeypatch, cold_caches, capsys):
    """With Gamma_1[0, 9] of the Cl(8,0) ladder negated, check 04's
    ``structure_constants`` raises NotClosed on the broken bases."""
    _negate_gamma1_entry(monkeypatch)
    assert cli.main(["verify", "--suite", "all", "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)
    by_id = {r["check_id"]: r for r in report["results"]}
    assert len(by_id) == 17 and report["summary"]["fail"] >= 2
    clifford, structure = (by_id["01-clifford-relations"],
                           by_id["04-structure-constants-match"])
    assert clifford["status"] == "fail"
    assert "anticommutator defect" in clifford["detail"]
    assert structure["status"] == "fail"
    assert structure["detail"] == "bracket of generators 0 and 1 leaves the span"


def test_any_other_error_in_a_check_body_exits_2(monkeypatch, capsys):
    import triality.representations as representations

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure inside a check")

    monkeypatch.setattr(representations, "structure_mismatches", boom)
    assert cli.main(["verify", "--suite", "euclidean"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "synthetic failure inside a check" in captured.err


def test_map_verb_lands_on_the_left_basis():
    out = run_cli("map", "--op", "H", "--from", "V")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["to"] == "L" and len(payload["items"]) == 28
    from triality.representations import spinor_bases
    from triality.clifford import EUCLIDEAN
    left = spinor_bases(EUCLIDEAN)[0]
    by_name = {item["name"]: item for item in payload["items"]}
    got = matrix_from_json(by_name["L_{0,1}"]["matrix"])
    assert got == left[(0, 1)]


@pytest.mark.parametrize("op_name", ["H", "K", "T", "conj"])
def test_map_coefficients_rebuild_every_matrix(capsys, op_name):
    from oracles import scalar_from_json
    from triality.outer import outer_op
    from triality.representations import basis
    signature = outer_op(op_name).signature
    for source_kind in ("V", "L", "R"):
        assert cli.main(["map", "--op", op_name, "--from", source_kind]) == 0
        payload = json.loads(capsys.readouterr().out)
        source = basis(source_kind, signature)
        by_name = {source.name_of(idx): m for idx, m in source.items()}
        for item in payload["items"]:
            acc = Matrix.zero(8)
            for term in item["coefficients"]:
                m = by_name[term["generator"]]
                if term["conjugated"]:
                    m = m.conj()
                acc = acc + m.scale(scalar_from_json(term["coefficient"]))
            assert acc == matrix_from_json(item["matrix"]), item["name"]


def test_map_conj_verb():
    out = run_cli("map", "--op", "conj", "--from", "L")
    payload = json.loads(out.stdout)
    assert payload["to"] == "R"
    assert all(item["coefficients"][0]["conjugated"]
               for item in payload["items"])


def test_grade_verb():
    out = run_cli("grade", "--signature", "8,0")
    payload = json.loads(out.stdout)
    assert payload["operator"] == "H"
    assert len(payload["invariant"]) == 14
    assert len(payload["right"]) == len(payload["left"]) == 7
    assert payload["right"][0]["eigenvalue"] == "e^{+i2pi/3}"


def test_s3_verb():
    for signature in ("8,0", "1,7"):
        payload = json.loads(run_cli("s3", "--signature", signature).stdout)
        assert payload["element_count"] == 6
        assert payload["is_s3"] and payload["braid_relation_holds"]
        assert payload["element_orders"] == {"1": 1, "2": 3, "3": 2}


def test_g2_verb():
    payload = json.loads(run_cli("g2", "--emit", "lambda").stdout)
    assert len(payload["items"]) == 14
    constraints = json.loads(
        run_cli("g2", "--emit", "constraints", "--format", "json").stdout)
    assert constraints["dimension"] == 14


def test_su3_verb():
    out = run_cli("su3")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["check"] == "pass" and len(payload["blocks"]) == 14


def test_emit_is_deterministic():
    first = run_cli("emit", "--object", "H", "--format", "json")
    second = run_cli("emit", "--object", "H", "--format", "json")
    assert first.stdout == second.stdout and first.returncode == 0
