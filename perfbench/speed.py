"""Host-speed sampling, so timings from a noisy shared host compare.

A shared host can change speed for every process alike: a 2-vCPU shared
VM was measured at up to 1.6x, in phases lasting from under a second to
tens of seconds, with CPU time tracking wall time (not descheduling).  `SpeedClock`
runs a fixed reference kernel every EVERY_S from a SIGALRM handler, inside
whatever Python code is running, and records how long it took.  A timed
interval is then reported as

    (wall seconds - seconds spent in samples) * NOMINAL_S / median sample

over the samples taken during the interval, widened by WINDOW_S on each
side: seconds on a machine where the kernel takes NOMINAL_S.

The kernel is benchmark code and imports nothing from mvcirc: a small
table-driven circuit interpreter, the instruction mix of mvcirc's hot
loops.  Code that leaves the interpreter (numpy) may be slowed less than the
kernel by a busy host, which biases its normalised times low.
"""

from __future__ import annotations

import bisect
import itertools
import random
import signal
import statistics
import time

NOMINAL_S = 0.001
EVERY_S = 0.05
# samples this far either side of an interval also count: a short interval
# holds few samples, and one 1 ms sample is itself noisy
WINDOW_S = 0.25

_N = 4
_RNG = random.Random(20261017)
_TABLE = tuple(_RNG.randrange(_N) for _ in range(_N * _N))
_GATES = tuple((_RNG.randrange(g), _RNG.randrange(g)) for g in range(4, 40))


def kernel() -> float:
    """Seconds for one evaluation of a 40-gate circuit over all 4^4 assignments."""
    t0 = time.perf_counter()
    hits = 0
    for assignment in itertools.product(range(_N), repeat=4):
        vals = list(assignment)
        append = vals.append
        for a, b in _GATES:
            append(_TABLE[vals[a] * _N + vals[b]])
        hits += vals[-1] == vals[-2]
    return time.perf_counter() - t0


class SpeedClock:
    """Context manager: samples the kernel every EVERY_S while active."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.times.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def elapsed(self, start: tuple[float, float]) -> tuple[float, float, float]:
        """(raw seconds since start without sampling time, start, end)."""
        end, spent = self.now()
        return end - start[0] - (spent - start[1]), start[0], end

    def factor(self, t_start: float, t_end: float) -> float:
        """NOMINAL_S over the median kernel time around [t_start, t_end]."""
        lo = bisect.bisect_left(self.times, t_start - WINDOW_S)
        hi = bisect.bisect_right(self.times, t_end + WINDOW_S)
        window = self.samples[lo:hi]
        if not window:
            window = self.samples[min(lo, len(self.samples) - 1):][:1] or [kernel()]
        return NOMINAL_S / statistics.median(window)
