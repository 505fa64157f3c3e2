"""Every benchmark request still prints the bytes recorded for it.

``bench/workloads.py`` lists the requests (verify, fault-injected verify,
the short CLI verbs and the library sweep) and ``bench/expected.json``
holds the sha256 of each one's stdout.  Both are read, never written.
Each distinct request runs once through ``triality.cli.main`` in this
process, so a change in term order or in the JSON encoding of a zero
coordinate fails here and not only in the benchmark.  The verify requests
also run under ``python -O``, which strips ``assert`` statements.
"""

import contextlib
import hashlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

from triality.cli import main

_BENCH = Path(__file__).resolve().parents[1] / "bench"
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
