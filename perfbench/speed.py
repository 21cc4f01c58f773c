"""Host speed, sampled while a workload runs, to give times at a fixed speed.

The shared virtual CPUs this benchmark was tuned on change speed by up to
40 % within seconds: on a 2-vCPU VM a fixed loop ran 16 to 28 times a
second in consecutive 2-s windows, with no steal time and one CPU second per
wall second. Repeating work inside a run does not average that out, so a
timer interrupts the run every PERIOD_S and times a fixed slice of small
numpy operations and a complex series in pure Python, the kinds of work the
package's hot paths do; that mix tracked the tasks of every workload better
than either part, or wide arrays, alone. A sample's speed is REF_SLICE_S
over the slice's measured time. A time *at reference
speed* is a measured time, less the samples taken inside it, multiplied by
the mean speed of the samples taken within WINDOW_S of it: the time the work
would take on a host that runs the slice in REF_SLICE_S.
"""

import bisect
import signal
from time import perf_counter, process_time

import numpy as np

PERIOD_S = 0.02
WINDOW_S = 0.25
# a round figure inside the slice's range on the 2-vCPU VM the benchmark was
# tuned on, where its 4-s medians ran from 0.25 to 0.40 ms
REF_SLICE_S = 3.0e-4


def _slice():
    a = np.zeros(4)
    for _ in range(100):
        a = a * 0.999 + 1.0
    term, z = 1.0 + 0j, 0.3 + 0.1j
    for k in range(300):
        term = term * z * (k + 0.5) / (k + 1.5)
    return a, term


class SpeedSampler:
    """Context manager that samples the host speed from a SIGALRM timer.

    The handler runs in the main thread between bytecodes, so a sample falls
    inside whatever task is running and is subtracted from it.
    """

    def __init__(self):
        self.starts, self.walls, self.cpus = [], [], []
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        c0, t0 = process_time(), perf_counter()
        _slice()
        t1, c1 = perf_counter(), process_time()
        self.starts.append(t0)
        self.walls.append(t1 - t0)
        self.cpus.append(c1 - c0)
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def overhead(self, t0, t1):
        """(wall, cpu) seconds the samples started in [t0, t1] took."""
        i, j = self._between(t0, t1)
        return sum(self.walls[i:j]), sum(self.cpus[i:j])

    def speed(self, t0, t1):
        """Mean speed of the samples within WINDOW_S of [t0, t1], else of the nearest one."""
        i, j = self._between(t0 - WINDOW_S, t1 + WINDOW_S)
        if i == j:     # a C call held off the timer for longer than the window
            i = min(range(len(self.starts)), key=lambda k: abs(self.starts[k] - t0))
            j = i + 1
        return REF_SLICE_S * sum(1.0 / w for w in self.walls[i:j]) / (j - i)

    def at_reference(self, t0, t1):
        """Seconds [t0, t1] would take at reference speed."""
        return (t1 - t0 - self.overhead(t0, t1)[0]) * self.speed(t0, t1)
