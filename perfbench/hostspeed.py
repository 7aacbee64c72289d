"""A fixed reference kernel that samples how fast the host runs right now.

The benchmark's host is a shared machine: the speed of one core drifts by a
third or more, in phases that last from seconds to minutes, and a whole run can
fall into a slow phase. Wall times taken minutes apart are then not
comparable. So while an operation runs, a timer signal runs this short kernel
every SAMPLE_EVERY_S seconds in the same thread, and once more before and after
the operation. The operation's time is its wall time less the kernel's, scaled
by the kernel's reference time over its mean time in those samples: the time
the operation would take on a host that runs the kernel in REFERENCE_S.

The kernel is interpreted Python, small dense least squares at the workloads'
band count, and a pass over arrays larger than the cache: the mix the
workloads spend their time on, so that it slows with them when the host does.
It never calls specangle, so no change to the program moves it; its inputs are
fixed, not drawn from the workload seed.
"""

import signal
import statistics
import time

import numpy as np

# Time of one kernel run at the reference speed: a little under its median
# (0.0115 s) on one 2.1 GHz Xeon vCPU of a shared host, with 1 BLAS thread.
REFERENCE_S = 0.01
SAMPLE_EVERY_S = 0.25

_clock = time.perf_counter


class HostSpeed:
    """Runs the reference kernel and scales wall times by what it measures."""

    def __init__(self):
        rng = np.random.default_rng(20160715)
        self._a = rng.standard_normal((103, 103))
        self._b = rng.standard_normal((103, 20))
        self._x = rng.standard_normal(1_000_000)
        self._y = np.empty_like(self._x)
        self.samples = []  # (start, wall time) of every kernel run

    @property
    def kernel_s(self):
        return [seconds for _, seconds in self.samples]

    def measure(self):
        """Run the kernel once and record when and for how long."""
        t0 = _clock()
        acc = 0
        for i in range(25_000):
            acc += i * i
        for _ in range(3):
            np.linalg.lstsq(self._a, self._b, rcond=None)
        np.multiply(self._x, 1.0001, out=self._y)
        np.add(self._y, self._x, out=self._y)
        self.samples.append((t0, _clock() - t0))

    def timed(self, calls):
        """Run each call while the kernel samples the host's speed. Return,
        per call, its result, its wall time less the kernel's time inside it,
        and that time scaled to the reference speed."""
        out = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.measure())
        try:
            self.measure()
            for call in calls:
                first = len(self.samples) - 1  # the sample just before the call
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
                t0 = _clock()
                try:
                    result = call()
                finally:
                    t1 = _clock()
                    signal.setitimer(signal.ITIMER_REAL, 0)
                self.measure()
                around = self.samples[first:]
                inside = sum(s for start, s in around if t0 <= start and start + s <= t1)
                wall = t1 - t0 - inside
                speed = statistics.fmean(s for _, s in around) / REFERENCE_S
                out.append((result, wall, wall / speed))
        finally:
            signal.signal(signal.SIGALRM, previous)
        return out
