"""CLI behavior: exit codes, determinism, schema, round trips."""

import json
import subprocess
import sys

import pytest

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


def test_usage_errors_exit_64():
    assert run_cli("verify", "--suite", "bogus").returncode == 64
    assert run_cli("emit", "--object", "bogus").returncode == 64
    assert run_cli("emit", "--object", "H", "--signature", "1,7").returncode == 64
    assert run_cli("emit", "--object", "vector",
                   "--signature", "9,9").returncode == 64
    assert run_cli().returncode == 64


def test_out_flag_writes_a_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("verify", "--suite", "lorentzian", "--format", "json",
                  "--out", str(target))
    assert out.returncode == 0 and out.stdout == ""
    data = json.loads(target.read_text())
    assert data["suite"] == "lorentzian"


# one request per verb, with a builder it calls through triality.cli
_VERB_BUILDERS = [
    (["verify", "--suite", "all"], "run_suite"),
    (["emit", "--object", "gammas-cl7"], "cl7_basis"),
    (["map", "--op", "H", "--from", "V"], "apply_outer"),
    (["grade", "--signature", "8,0"], "graded_basis"),
    (["s3", "--signature", "1,7"], "s3_closure"),
    (["g2", "--emit", "lambda"], "g2_basis"),
    (["su3"], "su3_embedding"),
]


def test_construction_error_exits_2(monkeypatch, capsys):
    import triality.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic construction failure")

    for argv, builder in _VERB_BUILDERS:
        monkeypatch.setattr(cli, builder, boom)
        assert cli.main(argv) == 2, argv
        assert "synthetic construction failure" in capsys.readouterr().err


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
    import triality.cli as cli
    from triality.emit import scalar_from_json
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
