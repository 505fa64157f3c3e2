"""What a new interpreter loads, and what the lazy package root exports.

A cold request should pay only for the modules its verb runs.  Each case
below starts a new interpreter, because in this process an earlier test
has already imported most of the package, which would hide both a module
loaded too early and a lazy import that a cold request is missing.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triality

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# Imports a module, runs triality.cli.main on the remaining argv with its
# stdout discarded, and prints what the import and the run loaded; it imports
# json only after taking that difference.
_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
package = __import__(sys.argv[1])
code = 0
if len(sys.argv) > 2:
    with contextlib.redirect_stdout(io.StringIO()):
        code = package.cli.main(sys.argv[2:])
loaded = set(sys.modules) - before
import json
print(json.dumps({
    "code": code,
    "triality": sorted(m for m in loaded if m.startswith("triality.")),
    "stdlib": sorted(m for m in ("dataclasses", "inspect", "json") if m in loaded),
}))
"""

_BUILDERS = ("triality.linalg", "triality.representations", "triality.outer",
             "triality.subalgebras")

# (module to import, verb argv, modules it must not load)
_BUDGETS = [
    ("triality", [], ("triality.cli", "triality.field", "triality.clifford")
     + _BUILDERS + ("triality.checks",)),
    ("triality.cli", [], ("triality.checks",)),
    ("triality.cli", ["emit", "--object", "gammas-cl7"],
     _BUILDERS + ("triality.checks",)),
    ("triality.cli", ["map", "--op", "H", "--from", "V"],
     ("triality.subalgebras", "triality.checks")),
    ("triality.cli", ["su3"], ("triality.outer", "triality.checks")),
]


def _probe(module, argv):
    out = subprocess.run([sys.executable, "-c", _PROBE, module, *argv],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("module, argv, forbidden", _BUDGETS,
                         ids=[" ".join([m, *a]) for m, a, _ in _BUDGETS])
def test_a_cold_request_loads_only_its_modules(module, argv, forbidden):
    """Nor does it load ``dataclasses``, ``inspect`` or ``json``: ``emit``
    quotes strings with the C function from ``_json``, and the ``json``
    package costs about 2.8 ms of ``import triality.cli``."""
    loaded = _probe(module, argv)
    assert loaded["code"] == 0
    assert not set(forbidden) & set(loaded["triality"]), loaded["triality"]
    assert loaded["stdlib"] == [], loaded


def test_verify_loads_every_module():
    loaded = _probe("triality.cli", ["verify", "--suite", "euclidean"])
    assert loaded["code"] == 0
    assert set(_BUILDERS + ("triality.checks",)) <= set(loaded["triality"])
    assert loaded["stdlib"] == [], loaded


def _imports_dataclasses(tree):
    return any((isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
               or (isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "dataclasses")
               for node in ast.walk(tree))


def test_no_module_imports_dataclasses():
    """Records are slots classes: building 18 dataclasses and importing
    ``dataclasses`` and ``inspect`` cost every cold request 20-25 ms."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((SRC / "triality").glob("*.py"))}
    assert "clifford.py" in trees and "checks.py" in trees
    assert not [name for name, tree in trees.items()
                if _imports_dataclasses(tree)]


# -- every verb, replayed cold -------------------------------------------------

_COVERED = {argv[2] for argv in workloads.CLI_VERBS if argv[0] == "emit"}
COLD_REQUESTS = list(workloads.CLI_VERBS) + [
    next(argv for argv in workloads.LIBRARY_REQUESTS
         if argv[:3] == ["emit", "--object", obj])
    for obj in workloads.EMIT_OBJECTS if obj not in _COVERED]


def test_the_cold_requests_cover_every_verb_and_object():
    assert {argv[0] for argv in COLD_REQUESTS} == {
        "emit", "map", "grade", "s3", "g2", "su3"}
    assert {argv[2] for argv in COLD_REQUESTS if argv[0] == "emit"} == set(
        workloads.EMIT_OBJECTS)
    assert len(COLD_REQUESTS) == 19


@pytest.mark.parametrize("argv", COLD_REQUESTS, ids=workloads.key)
def test_a_new_interpreter_prints_the_recorded_bytes(argv):
    out = subprocess.run([sys.executable, "-m", "triality.cli", *argv],
                         capture_output=True, env=ENV)
    assert out.returncode == 0, out.stderr
    assert (hashlib.sha256(out.stdout).hexdigest()
            == workloads.load_expected()["digests"][workloads.key(argv)])


# -- the lazy package root -------------------------------------------------------

# The names the package root exports, by the module that defines each.
ROOT_EXPORTS = {
    "clifford": "EUCLIDEAN LORENTZIAN GammaBasis Signature chiral_transform "
                "cl7_basis cl8_basis cl17_basis dirac_gammas volume_element",
    "field": "ExactScalar HALF I MINUS_ONE ONE OMEGA OMEGA_BAR SQRT2 SQRT3 "
             "SQRT6 ZERO from_parts rational scalar",
    "linalg": "CoordSolver StructureConstants Subspace det is_closed rref "
              "structure_constants",
    "matrix": "Matrix anticommutator commutator kron",
    "outer": "GradedBasis OuterOp apply_outer diagonalize graded_basis "
             "killing_form killing_trace outer_conj outer_h outer_k outer_op "
             "outer_t quartet_terms s3_closure signature_ops unpack",
    "representations": "GEN_INDICES LieBasis M_MATRIX P_MATRIX basis "
                       "real_span same_span same_structure_constants "
                       "spinor_bases vector_basis",
    "subalgebras": "G2Basis IntersectionSystem Su3Embedding g2_basis "
                   "gell_mann intersect intersect_pair lambda_gram "
                   "restrict su3_embedding su3_transform",
}
EXPORTED = [(module, name) for module, names in ROOT_EXPORTS.items()
            for name in names.split()]


def test_the_root_exports_the_same_72_names():
    names = {name for _, name in EXPORTED}
    assert len(EXPORTED) == len(names) == 72
    assert set(triality.__all__) == names and len(triality.__all__) == 72
    assert names <= set(dir(triality))


def test_every_root_name_is_its_module_attribute():
    assert not [(module, name) for module, name in EXPORTED
                if getattr(triality, name) is not getattr(
                    importlib.import_module(f"triality.{module}"), name)]


def test_star_import_binds_every_name():
    namespace = {}
    exec("from triality import *", namespace)
    assert {name for _, name in EXPORTED} <= set(namespace)


def test_an_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        triality.no_such_name
    assert not hasattr(triality, "no_such_name")
