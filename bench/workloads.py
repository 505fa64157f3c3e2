"""Requests, known answers and process helpers shared by the benchmark files.

Every request is a ``triality`` argv list.  ``expected.json`` holds the
sha256 of each request's stdout as recorded from a known-good commit
(``record.py`` regenerates it) plus the hand-written verdict of
``verify --suite all``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED_PATH = BENCH / "expected.json"

VERIFY = ["verify", "--suite", "all", "--format", "json"]
VERIFY_FAULT = VERIFY + ["--inject-fault", "h-sign"]

EMIT_OBJECTS = ("gammas-cl7", "gammas-cl8", "gammas-cl17", "vector",
                "spinor-left", "spinor-right", "H", "K", "T", "g2-lambda",
                "g2-constraints", "su3-blocks", "graded")
SIGNED = ("vector", "spinor-left", "spinor-right", "graded")
SIGNATURES = ("8,0", "1,7")
FORMATS = ("json", "text", "latex")


def _library_requests():
    out = []
    for obj in EMIT_OBJECTS:
        sigs = SIGNATURES if obj in SIGNED else (None,)
        for sig in sigs:
            for fmt in FORMATS:
                argv = ["emit", "--object", obj, "--format", fmt]
                out.append(argv + (["--signature", sig] if sig else []))
    for op in ("H", "K", "T", "conj"):
        for source in ("V", "L", "R"):
            out.append(["map", "--op", op, "--from", source])
    for sig in SIGNATURES:
        out.append(["grade", "--signature", sig])
        out.append(["s3", "--signature", sig])
    out.append(["g2", "--emit", "lambda"])
    out.append(["g2", "--emit", "constraints"])
    out.append(["su3"])
    return out


# The 70 read-only requests of one library-warm pass.
LIBRARY_REQUESTS = _library_requests()

# The short verbs of cli-cold, one new interpreter each.
CLI_VERBS = [
    ["emit", "--object", "gammas-cl17"],
    ["emit", "--object", "spinor-left", "--signature", "1,7",
     "--format", "latex"],
    ["emit", "--object", "vector", "--format", "text"],
    ["emit", "--object", "H"],
    ["emit", "--object", "g2-lambda"],
    ["emit", "--object", "gammas-cl7", "--format", "latex"],
    ["map", "--op", "T", "--from", "L"],
    ["map", "--op", "H", "--from", "V"],
    ["grade", "--signature", "1,7"],
    ["s3", "--signature", "8,0"],
    ["g2", "--emit", "constraints", "--format", "text"],
    ["su3"],
]

# Cross-path pairs: the first request's output, parsed back, must equal the
# second's.  H(V) = L in (8,0), and conj(L) = R in (1,7).
CROSS_PATHS = [
    (["map", "--op", "H", "--from", "V"],
     ["emit", "--object", "spinor-left", "--format", "json",
      "--signature", "8,0"]),
    (["map", "--op", "conj", "--from", "L"],
     ["emit", "--object", "spinor-right", "--format", "json",
      "--signature", "1,7"]),
]


def key(argv) -> str:
    return " ".join(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def child_env() -> dict:
    """The environment of every child: the checkout's own ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def count_subchecks(report) -> int:
    """The sum of the "(N exact sub-checks)" details of a suite report."""
    return sum(int(n) for r in report.results
               for n in re.findall(r"\((\d+) exact sub-checks\)", r.detail))


def median(values):
    return statistics.median(values) if values else float("nan")


class Child:
    """A finished child process: exit code, output, wall and CPU time.

    The bench children report their own figures, such as import time and
    peak RSS, through ``marker``.
    """

    def __init__(self, code, out, err, wall_s, cpu_s):
        self.code, self.out, self.err = code, out, err
        self.wall_s, self.cpu_s = wall_s, cpu_s

    def marker(self, name):
        """A ``@name <value>`` figure a bench child printed to stderr."""
        for line in self.err.splitlines():
            if line.startswith(f"@{name} "):
                return float(line.split()[1])
        return None


def spawn(argv, timeout=170.0) -> Child:
    """Run one child to completion and collect its own rusage via wait4.

    Stdout is read whole; stderr goes to a scratch file so neither pipe can
    fill up.  A child still running after ``timeout`` seconds is killed.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_text = err.read().decode(errors="replace")
    return Child(proc.returncode, out, err_text, wall,
                 usage.ru_utime + usage.ru_stime)


def bench_child(script, *args, timeout=170.0) -> Child:
    return spawn([sys.executable, str(BENCH / script), *map(str, args)],
                 timeout=timeout)
