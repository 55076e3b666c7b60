"""Host-speed-normalized timing.

On a shared host the speed of a core swings by up to 1.7x, within tens of
milliseconds and over minutes, and it shows in CPU time as much as in wall
time.  A ``SpeedClock`` therefore runs a fixed probe kernel (plain Python,
independent of numpy and anisoweights, so it can also clock the imports)
every ``INTERVAL_S`` of the timed work, from a SIGALRM handler in the timed
thread, and divides each stretch of work by the median of the last
``WINDOW`` probe times; the median damps a single interrupted probe and
still follows the host within a fraction of a second.  The sum, times
``NOMINAL_PROBE_S``, reads as seconds at the host speed at which the probe
takes ``NOMINAL_PROBE_S``.  Probe time is left out of both figures.

A change to anisoweights moves the work but not the probe, so it moves the
normalized time by the same factor as the raw time on a steady host.
"""

from __future__ import annotations

import signal
import statistics
import time

# the probe's usual time on the 2-core x86-64 box the benchmark was written
# on; it only sets the scale of normalized times
NOMINAL_PROBE_S = 0.7e-3
INTERVAL_S = 0.05
WINDOW = 5


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(4000):
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
    return acc


def probe_s() -> float:
    """Seconds one run of the probe kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class SpeedClock:
    """Context manager timing its body both raw and speed-normalized.

    ``raw_s`` is the body's wall time without the probes run inside it;
    ``norm_s`` is that time stretch by stretch divided by the median of
    the last ``WINDOW`` probe times, times ``NOMINAL_PROBE_S``.
    """

    def __enter__(self):
        self.raw_s = self.norm_s = 0.0
        self.probes = 0
        self._busy = False
        self._recent = [probe_s()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum=None, frame=None):
        if self._busy:  # a tick that was pending when the last one started
            return
        self._busy = True
        stretch = time.perf_counter() - self._mark
        self._recent = self._recent[1 - WINDOW:] + [probe_s()]
        self.raw_s += stretch
        self.norm_s += stretch / statistics.median(self._recent) * NOMINAL_PROBE_S
        self.probes += 1
        self._mark = time.perf_counter()
        self._busy = False

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._tick()
        signal.signal(signal.SIGALRM, self._previous)
        return False
