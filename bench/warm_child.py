"""The library-warm process: import once, warm up, then time whole passes.

Usage: python3 bench/warm_child.py SECONDS ORDER

ORDER is a comma-separated list of indices into ``LIBRARY_REQUESTS``.  One
untimed pass fills the caches; passes of ``triality.cli.main`` with stdout
captured follow until SECONDS have passed (at least one), each request
timed on its own.  A ``Pace`` samples the host's speed throughout; each
request's times are adjusted to the reference speed by the mean sample of
its pass (see pace.py), and the raw wall times are kept beside them.  The
cross-path checks run, untimed, on the outputs of the warm-up pass and of
the last timed pass.  One JSON object goes to stdout, after the sampling
has stopped.
"""

import contextlib
import io
import json
import sys
import time

from pace import Pace, adjust
from rss import peak_rss_mb
from workloads import CROSS_PATHS, LIBRARY_REQUESTS, digest, key

pace = Pace()
pace.start()
first = len(pace.samples)
t0 = time.perf_counter()
import triality.cli  # noqa: E402
from triality.emit import matrix_from_json  # noqa: E402

setup_s = time.perf_counter() - t0
_, inside_s = pace.stats(first)
n, total = pace.stats()
setup = {"setup_raw_s": setup_s, "setup_s": adjust(setup_s, inside_s, total / n)}


def run_request(argv):
    """Exit code, stdout text, wall and CPU seconds of one request, and the
    calibration time sampled inside it."""
    buf = io.StringIO()
    first = len(pace.samples)
    w0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(buf):
        try:
            code = triality.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return code, buf.getvalue(), wall, cpu, pace.stats(first)[1]


def run_pass(order):
    return [run_request(LIBRARY_REQUESTS[i]) for i in order]


def timed_pass(order):
    """One pass, each request's times adjusted by the pass's mean sample."""
    first = len(pace.samples)
    outputs = run_pass(order)
    n, total = pace.stats(first)
    return outputs, {
        "codes": [out[0] for out in outputs],
        "digests": [digest(out[1].encode()) for out in outputs],
        "raw_wall_s": [out[2] for out in outputs],
        "wall_s": [adjust(out[2], out[4], total / n) for out in outputs],
        "cpu_s": [adjust(out[3], out[4], total / n) for out in outputs]}


def _items(text):
    return {item["name"]: matrix_from_json(item["matrix"])
            for item in json.loads(text)["items"]}


def cross_paths(order, outputs):
    """Each mapped basis, parsed back, must equal its emitted image."""
    by_key = {key(LIBRARY_REQUESTS[i]): out[1]
              for i, out in zip(order, outputs)}
    results = []
    for mapped, image in CROSS_PATHS:
        got, want = _items(by_key[key(mapped)]), _items(by_key[key(image)])
        results.append({"check": f"{key(mapped)} == {key(image)}",
                        "ok": len(got) == 28 and got == want})
    return results


def main():
    seconds = float(sys.argv[1])
    order = [int(i) for i in sys.argv[2].split(",")]
    w0 = time.perf_counter()
    outputs = run_pass(order)
    warmup_s = time.perf_counter() - w0
    cross = cross_paths(order, outputs)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        outputs, timing = timed_pass(order)
        passes.append(timing)
    pace.stop()
    cross += cross_paths(order, outputs)
    json.dump({**setup, "warmup_s": warmup_s, "passes": passes,
               "cross_paths": cross, "peak_rss_mb": peak_rss_mb()}, sys.stdout)


if __name__ == "__main__":
    main()
