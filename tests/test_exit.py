"""What a process that imports ``triality.cli`` does when it ends.

``triality.cli`` registers ``gc.freeze`` with ``atexit``, so at exit every
live object moves to the collector's permanent generation and the
interpreter's final collections skip it.  A new interpreter is started for
each exit case, because the hook runs only when an interpreter ends; the
in-process case shows that a caller's collector is left alone until then.
"""

import contextlib
import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from triality import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
DIGESTS = workloads.load_expected()["digests"]

# Registers its own atexit handler before importing the module named in
# argv[1]; handlers run last in first out, so this one runs after any that
# the import registers, and prints how many objects the exit froze.
_FREEZE_PROBE = """
import atexit, contextlib, gc, importlib, io, sys
atexit.register(lambda: print(gc.get_freeze_count()))
module = importlib.import_module(sys.argv[1])
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert module.main(sys.argv[2:]) == 0
"""


def _frozen_at_exit(module, *argv):
    out = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, module, *argv],
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stderr
    return int(out.stdout)


def test_a_cli_process_freezes_its_heap_at_exit():
    assert _frozen_at_exit("triality.cli", "emit", "--object", "H") > 0


def test_a_process_without_the_cli_freezes_nothing():
    assert _frozen_at_exit("triality.field") == 0


def test_main_leaves_the_callers_collector_alone():
    before = gc.get_freeze_count(), gc.isenabled()
    for argv in (["emit", "--object", "H"], ["map", "--op", "T", "--from", "L"],
                 ["emit", "--object", "nope"], ["s3", "--signature", "8,0"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                contextlib.suppress(SystemExit):
            cli.main(argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == before, argv


# Runs each request of the JSON list in argv[1] through main, then collects
# explicitly: under -X dev -W error, a file left open or a finalizer run on
# cyclic garbage writes to stderr, which the exit collections, frozen out
# by the hook, would never have reached.
_LEAK_PROBE = """
import gc, json, sys
from triality.cli import main
for request in json.loads(sys.argv[1]):
    assert main(request) == 0, request
gc.collect()
assert gc.garbage == []
"""


def test_nothing_is_left_for_the_exit_collections(tmp_path):
    """The hook skips no finalizer that the requests need: their files are
    closed and complete, and an explicit collection finds nothing that
    warns or errs."""
    verify, vector = tmp_path / "verify.json", tmp_path / "vector.json"
    requests = [workloads.VERIFY + ["--out", str(verify)],
                ["emit", "--object", "vector", "--out", str(vector)],
                ["map", "--op", "T", "--from", "L"]]
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c",
                          _LEAK_PROBE, json.dumps(requests)],
                         capture_output=True, env=ENV)
    assert (out.returncode, out.stderr) == (0, b"")
    digest = workloads.digest
    assert digest(verify.read_bytes()) == DIGESTS[workloads.key(workloads.VERIFY)]
    assert digest(vector.read_bytes()) == DIGESTS[
        "emit --object vector --format json --signature 8,0"]
    assert digest(out.stdout) == DIGESTS["map --op T --from L"]
