"""Machine-speed reference: a fixed kernel timed throughout every task.

The host the benchmark runs on shares its cores with other tenants.  Its
speed drifts by up to 2x within seconds and between minutes, and other
processes take turns on its cores (see README.md, "Noise on a shared
machine").  Raw seconds therefore spread more between runs of the same code
than any useful bound.  Two things take the host out of the figures:

- times are CPU times of this process, so time spent waiting for a core
  does not count;
- the sampler times a small fixed kernel every ``INTERVAL_S`` throughout a
  timed run, from a SIGALRM handler on the same thread.  Each kernel time
  stands for the core's speed from halfway back to the sample before it to
  halfway on to the sample after it.  A task's CPU time divided by the
  time-weighted harmonic mean of the kernel times over the task is its time
  in *ref* units: how many kernel runs it costs at the speed the core had
  while the task ran.  Drift slows both alike and cancels.

The kernel does the kind of work imprimlab does (GF(p) row reduction with
Python loops, small numpy row operations and hashing) but imports nothing
from imprimlab, so a change to the program moves task times and leaves the
kernel alone.  Changing the kernel changes the unit: results taken with
different kernels must not be compared.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.01  # time between kernel samples

_P = 5
_MATRICES = [
    np.array([[(7 * i + 3 * j + k) % _P for j in range(6)] for i in range(4)],
             dtype=np.int64)
    for k in range(8)
]


def _row_reduce(a: np.ndarray, p: int) -> tuple[bytes, int]:
    a = a % p
    m, n = a.shape
    row = 0
    for col in range(n):
        if row >= m:
            break
        hit = next((r for r in range(row, m) if a[r, col]), None)
        if hit is None:
            continue
        if hit != row:
            a[[row, hit]] = a[[hit, row]]
        a[row] = (a[row] * pow(int(a[row, col]), p - 2, p)) % p
        for r in range(m):
            if r != row and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[row]) % p
        row += 1
    return a.tobytes(), row


def kernel() -> int:
    """The fixed unit of work; returns a checksum so nothing is skipped."""
    seen = {}
    for a in _MATRICES:
        key, rank = _row_reduce(a, _P)
        seen[hash(key)] = rank
    return sum(seen.values())


class Sampler:
    """Times the kernel on a timer while installed.

    ``samples`` holds (wall-clock start, CPU seconds) per kernel run, and
    ``busy_wall``/``busy_cpu`` the total wall and CPU seconds spent in the
    handler, so a caller can take the sampler's own time out of a measured
    interval.  Use as a context manager; leaving it stops the
    timer and restores the previous SIGALRM handler.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.busy_wall = 0.0
        self.busy_cpu = 0.0
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        self.samples.append((wall, time.process_time() - cpu))
        self.busy_cpu += time.process_time() - cpu
        self.busy_wall += time.perf_counter() - wall

    def __enter__(self) -> "Sampler":
        for _ in range(20):  # warm numpy's and the interpreter's caches
            kernel()
        self._sample()  # so that even a task shorter than the interval has one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_seconds(self, start: float, end: float) -> float:
        """Kernel CPU time over the wall-clock interval [start, end].

        Each sample holds from the midpoint with the sample before it to the
        midpoint with the sample after it.  The result is the time-weighted
        harmonic mean of the samples over the interval, so a task's CPU time
        divided by it sums the kernel runs it was worth, piece by piece.  An
        interval within one sample's span gets that sample's time.
        """
        times = [t for t, _ in self.samples]
        mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
        i = bisect.bisect_left(mids, start)
        if end <= start or i == len(mids) or end <= mids[i]:
            return self.samples[i][1]
        rate, t = 0.0, start
        while t < end:
            upto = min(mids[i], end) if i < len(mids) else end
            rate += (upto - t) / self.samples[i][1]
            t, i = upto, i + 1
        return (end - start) / rate
