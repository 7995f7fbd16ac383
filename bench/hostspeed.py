"""Host-speed reference: scales the benchmark's times to a nominal host.

On a shared two-core virtual machine the speed of the CPU drifts by 20 to
40 % over spells of one to several minutes (other tenants share the
physical cores).  A fixed pure-Python loop measured 25.2-29.2 ms per chunk
in consecutive 25 s windows, and ten benchmark runs of the same code read
op latencies that differed by 30 % between such spells.  Medians over
repeats inside one run cannot remove a drift that lasts longer than the
run.

So every pass also times a fixed reference computation, every
SAMPLE_EVERY_S seconds, from a SIGALRM handler (the pass stays one process
with no threads).  The time spent in the handler is subtracted from the op
that it interrupted.  The pass's host factor is the median reference time
over NOMINAL_S, and the end-to-end times are the measured wall times
divided by that factor: wall time on a host running at the nominal speed.
Both sides of a comparison run the same reference, so the factor cancels
host drift and leaves the program's own changes.  run.py prints the raw
wall times and the factors next to the scaled values.
"""

from __future__ import annotations

import signal
import statistics
import time

# median of reference() on the machine the bounds were set on (2 vCPUs,
# Python 3.11.7); only the scale of the reported times depends on it
NOMINAL_S = 0.0088
SAMPLE_EVERY_S = 0.5


def reference():
    """Integer arithmetic and dict stores: a fixed ~9 ms of interpreter work."""
    table = {}
    x = 1
    for i in range(20000):
        x = (x * 1103515245 + i) % 2147483647
        table[x & 1023] = i
    return x


def time_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Sampler:
    """Times reference() periodically while the pass runs.

    `spent` is the total time spent in the handler; timers read it before
    and after an op and subtract the difference.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(time_reference())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples.append(time_reference())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_reference())
        return False

    def factor(self):
        """How much slower than nominal the host ran during the pass."""
        return statistics.median(self.samples) / NOMINAL_S


def factor_now(samples=5):
    """The host factor from a few reference runs made now."""
    return statistics.median(time_reference() for _ in range(samples)) / NOMINAL_S
