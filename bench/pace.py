"""Host speed, sampled inside a bench child by a fixed calibration loop.

The benchmark's host runs each vCPU at one of two speeds about 1.8x apart,
and a phase lasts from under a second to whole minutes.  A 6 s verify can
run all fast, all slow or mixed, so its raw wall time swings by that factor
between operations, runs and run sets, and no statistic over a run removes
that.

A ``Pace`` times one fixed loop of ``Fraction`` arithmetic (the kind of work
the field layer does) every ``INTERVAL`` seconds of wall time, from a
SIGALRM handler in the main thread, so each sample runs on the CPU that runs
the program at that moment.  The mean sample time over an operation is the
host's speed over that operation.  ``adjust`` turns a measured time into the
time the operation would take at the speed where one loop takes ``REF_S``:
it removes the loops' own time, then scales by ``REF_S / mean``.  The loop
is the benchmark's own code and never calls ``triality``, so a change to the
program moves the adjusted figure exactly as it moves the raw one.
"""

import signal
import time
from fractions import Fraction

# One calibration loop at the host's fast speed (Python 3.11, 2-vCPU box).
# It only sets the scale of the adjusted figures, not their spread.
REF_S = 0.00025
INTERVAL = 0.01
BURST = 3


def calibration_loop():
    a, b, s = Fraction(3, 7), Fraction(5, 11), Fraction(0)
    for i in range(30):
        s += a * b
        a, b = b, a + Fraction(1, i + 2)
    return s


class Pace:
    """Calibration samples taken every INTERVAL seconds while running."""

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        """Take BURST samples now, then one every INTERVAL seconds."""
        for _ in range(BURST):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def stats(self, first=0):
        """The count and total time of the samples from index ``first`` on."""
        taken = self.samples[first:]
        return len(taken), sum(taken)


def adjust(seconds, inside_s, mean_s):
    """``seconds`` less ``inside_s`` of loop time in it, rescaled from loops
    of ``mean_s`` to loops of REF_S."""
    return (seconds - inside_s) * REF_S / mean_s
