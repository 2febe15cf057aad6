"""A clock that corrects wall time for the speed of a shared CPU.

The benchmark runs on a virtual machine whose host is shared with other
tenants: the same pure-Python work runs up to twice as slowly in phases of a
few seconds, while steal time stays near zero and no hardware counters are
exposed, so neither CPU time nor instruction counts remove the swing.

`SpeedClock` measures the speed of the CPU the program is running on, while
it runs: every `PERIOD_S` a SIGALRM handler runs a fixed pure-Python
reference kernel and times it.  `read()` gives two running totals of program
time, the handler's own time excluded:

* wall seconds;
* normalised seconds: each slice of wall time between two samples, scaled by
  `NOMINAL_S` / (median kernel time of the last `WINDOW` samples), i.e. the
  time the slice would have taken on a CPU where the kernel takes
  `NOMINAL_S`.  A faster program gives proportionally fewer normalised
  seconds; a slower host does not.

Python runs signal handlers in the main thread between bytecodes, so a
sample waits for the native call (numpy, scipy) in progress to return; the
slice it closes is still scaled by the speed measured when it ends.
"""

from __future__ import annotations

import cmath
import signal
import time

PERIOD_S = 0.02
NOMINAL_S = 250e-6     # kernel time on the benchmark's 2-vCPU Xeon VM, fast phase
WINDOW = 5
CALIBRATION_SAMPLES = 5

_clock = time.perf_counter


def kernel() -> float:
    """Fixed reference work: complex arithmetic, calls and list growth, the
    mix of the program's own pure-Python evaluation paths."""
    z = 0j
    acc = []
    for i in range(400):
        z = cmath.exp(complex(i * 1e-3, 0.5)) * z + (i % 7)
        acc.append(z.real)
    return sum(acc)


def scale_for(samples) -> float:
    """NOMINAL_S over the median of the last WINDOW kernel times."""
    recent = sorted(samples[-WINDOW:])
    return NOMINAL_S / recent[len(recent) // 2]


class SpeedClock:
    """Wall and normalised program time of one process (see module doc).
    Use start() before the first read() and stop() when done."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        # (end of last sample, wall total, normalised total, current scale),
        # replaced in one assignment so that read() sees a consistent state
        self._state = (_clock(), 0.0, 0.0, 1.0)
        self._previous_handler = None

    def start(self):
        for _ in range(CALIBRATION_SAMPLES):
            t0 = _clock()
            kernel()
            self.samples.append(_clock() - t0)
        self._state = (_clock(), 0.0, 0.0, scale_for(self.samples))
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def _sample(self, signum, frame):
        t0 = _clock()
        kernel()
        t1 = _clock()
        self.samples.append(t1 - t0)
        last, wall, norm, _ = self._state
        scale = scale_for(self.samples)
        dt = t0 - last
        self._state = (t1, wall + dt, norm + dt * scale, scale)

    def read(self) -> tuple[float, float]:
        """(wall, normalised) seconds of program time since start()."""
        t = _clock()
        last, wall, norm, scale = self._state
        # a sample that ran after `t` was taken has already closed the slice
        dt = max(0.0, t - last)
        return wall + dt, norm + dt * scale

    def kernel_median(self) -> float:
        xs = sorted(self.samples)
        return xs[len(xs) // 2]
