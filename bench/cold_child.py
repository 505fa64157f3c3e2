"""One cold CLI request: time ``import triality.cli``, then run ``main``.

Usage: python3 bench/cold_child.py [triality argv...]

With no argv it only imports (a set-up probe).  A ``Pace`` samples the
host's speed from the first line until ``main`` returns.  Its signal would
cut short a large write to a pipe (CPython drops the rest of the text), so
``main``'s stdout is captured and written out once the sampling has
stopped; the write is still inside the child's wall time.  These figures go
to stderr, so stdout stays the CLI's own bytes:

  @setup_raw_s        the import time as measured
  @setup_s            the import time adjusted to the reference speed
  @pace_n, @pace_sum  count and total time of all calibration samples
  @peak_rss_mb        the peak RSS at exit
"""

import contextlib
import io
import sys
import time

from pace import Pace, adjust
from rss import peak_rss_mb

pace = Pace()
pace.start()
first = len(pace.samples)
t0 = time.perf_counter()
import triality.cli  # noqa: E402

setup_s = time.perf_counter() - t0
_, inside_s = pace.stats(first)
n, total = pace.stats()
print(f"@setup_raw_s {setup_s!r}\n"
      f"@setup_s {adjust(setup_s, inside_s, total / n)!r}",
      file=sys.stderr, flush=True)
code = 0
out = io.StringIO()
try:
    if len(sys.argv) > 1:
        with contextlib.redirect_stdout(out):
            code = triality.cli.main(sys.argv[1:])
finally:
    pace.stop()
    sys.stdout.write(out.getvalue())
    sys.stdout.flush()
    n, total = pace.stats()
    print(f"@pace_n {n}\n@pace_sum {total!r}\n@peak_rss_mb {peak_rss_mb()!r}",
          file=sys.stderr, flush=True)
sys.exit(code)
