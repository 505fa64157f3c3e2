"""Every benchmark request still prints the bytes recorded for it.

``bench/workloads.py`` lists the requests (verify, fault-injected verify,
the short CLI verbs and the library sweep) and ``bench/expected.json``
holds the sha256 of each one's stdout.  Both are read, never written.
Each distinct request runs once through ``triality.cli.main`` in this
process, so a change in term order or in the JSON encoding of a zero
coordinate fails here and not only in the benchmark.  The verify requests
also run under ``python -O``, which strips ``assert`` statements.

The ``verify`` suite and fault combinations the benchmark does not request
are pinned here too, by the sha256 of their text and JSON reports, and so
is the stdout of each script in ``demos``.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from triality.checks import FAULT_H_SIGN, run_suite
from triality.cli import main

_ROOT = Path(__file__).resolve().parents[1]
_BENCH = _ROOT / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

EXPECTED = workloads.load_expected()
REQUESTS = {workloads.key(argv): argv
            for argv in [workloads.VERIFY, workloads.VERIFY_FAULT,
                         *workloads.CLI_VERBS, *workloads.LIBRARY_REQUESTS]}


def test_every_recorded_digest_has_a_request():
    assert set(REQUESTS) == set(EXPECTED["digests"])


@pytest.mark.parametrize("request_key", sorted(REQUESTS))
def test_stdout_matches_the_recorded_digest(request_key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(REQUESTS[request_key])
    want = EXPECTED["fault"]["exit"] if request_key == workloads.key(
        workloads.VERIFY_FAULT) else 0
    assert code == want
    assert (hashlib.sha256(out.getvalue().encode()).hexdigest()
            == EXPECTED["digests"][request_key])


def test_verify_does_not_rely_on_assert_statements():
    def run(argv):
        return subprocess.run([sys.executable, "-O", "-m", "triality.cli", *argv],
                              capture_output=True)

    out = run(workloads.VERIFY)
    assert out.returncode == 0, out.stderr
    assert (hashlib.sha256(out.stdout).hexdigest()
            == EXPECTED["digests"][workloads.key(workloads.VERIFY)])
    assert run(workloads.VERIFY_FAULT).returncode == 1


# (suite, fault) -> format -> (sha256 of the report, verify exit code)
PINNED_REPORTS = {
    ("all", None): {
        "text": ("a12fbfeaf4555e9a1a4995dc7addcbfc46870f9064429010e5d72729f94154f0", 0)},
    ("all", FAULT_H_SIGN): {
        "text": ("598a82cb3f687780eb2f380e3174193dfa3249b4041ba41a7748de4c48a4c2eb", 1)},
    ("euclidean", None): {
        "text": ("b273511d17d5ab220870cc12ae0f1d89d33ba9c97c36c0b7185c527bb5a51d25", 0),
        "json": ("8b655ad5ce8151aab91f8e12bf3dea15ebbc08681c35f53112fec9d2355503e6", 0)},
    ("euclidean", FAULT_H_SIGN): {
        "text": ("e871928793884c82e45c3f2c886e9550ee2a1143a96528240424993fb1beefde", 1),
        "json": ("090abe6eeadeddc7c56d5fe05208bf4982c415256c736d2cdf572da273087ef1", 1)},
    ("lorentzian", None): {
        "text": ("3e9fa3dc287926cb576ac8780f264a735d3bcfd05df33f0882542033610a3d2d", 0),
        "json": ("d054f601c79a477d2e5c3390059b7b5e56660c1f2340b1f9efdd92dc0d3df0da", 0)},
}


@pytest.mark.parametrize("suite, fault", sorted(PINNED_REPORTS, key=str))
def test_verify_reports_match_their_pinned_digests(suite, fault):
    report = run_suite(suite, fault=fault)
    rendered = {"text": report.to_text(), "json": report.to_json_text()}
    for fmt, (digest, code) in PINNED_REPORTS[suite, fault].items():
        assert (1 if report.failed else 0) == code, fmt
        assert hashlib.sha256(rendered[fmt].encode()).hexdigest() == digest, fmt


# demo script -> sha256 of its stdout
DEMO_DIGESTS = {
    "01_gamma_ladders.py":
        "03c589b2a185e36ef9e11f5dd5d7530dc9ba44413a2955f56a573565b8d3052b",
    "02_three_eights.py":
        "cc62464e06edaa843e6b972d7e9893430f06fac45102f17e37b16d45ad98d3e1",
    "03_triality_in_action.py":
        "07247b9f3da63204e5ea8ab1412393d624944d0c56013a4272c2e4b9e79b7e66",
    "04_intersecting_spin7.py":
        "75cba1b7ccec9a97475fcbd4f166af0c11085378516c50882f45ce213c1d68e6",
    "05_diagonal_triality.py":
        "bad681454c73c358b32c074aacc63aedecc73016248cb5cc10ed374847e5c2e2",
    "06_lorentzian_triality.py":
        "90e3de7c26fd92fcab990d4e1bbd3546a2bf92b231129d9079d75173ea791998",
}


def test_every_demo_has_a_pinned_digest():
    assert {p.name for p in (_ROOT / "demos").glob("*.py")} == set(DEMO_DIGESTS)


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_stdout_matches_its_pinned_digest(demo):
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    out = subprocess.run([sys.executable, str(_ROOT / "demos" / demo)],
                         capture_output=True, env=env)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == DEMO_DIGESTS[demo]
