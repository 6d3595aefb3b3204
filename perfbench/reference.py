"""A fixed reference computation that measures the machine's current speed.

The shared reference machine drifts: the same job list ran up to 2x slower
in some minutes than in others, and its speed moves by 20 to 40% within a
second. While a job runs, `Probe` times a small fixed kernel every
`PERIOD` seconds from a timer signal; the benchmark reports job times as
multiples of the kernel's median time during the job, which cancels most of
that drift. The kernel imports nothing from curvegp, so changes to the
program never change it; it mixes what the workloads do: elementwise numpy
work on a small Gram matrix, a Cholesky solve and an interpreted loop. It
takes about 0.2 ms, under 1% of the job time at the default period.
"""

import signal
import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

PERIOD = 0.025

_S = np.linspace(0.0, 1.0, 60)
_R = np.abs(_S[:, None] - _S[None, :])
_Y = np.sin(7.0 * _S)
_EYE = np.eye(len(_S))


def _kernel() -> float:
    a = np.sqrt(3.0) * 2.0 * np.abs(np.sin(np.pi * _R)) / 0.1
    gram = (1.0 + a) * np.exp(-a) + 1e-3 * _EYE
    total = float(_Y @ cho_solve(cho_factor(gram, lower=True), _Y))
    acc = 0
    for i in range(200):
        acc += i * i % 7
    return total + acc


class Probe:
    """Times the reference kernel every `period` seconds between `start`
    and `stop`, from SIGALRM; the handler runs between bytecodes of the
    main thread, so the program's state is never seen half-updated."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.ticks = []  # (start, seconds) of each kernel run

    def _tick(self, *_):
        start = time.perf_counter()
        _kernel()
        self.ticks.append((start, time.perf_counter() - start))

    def start(self):
        self.ticks = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self, end: float) -> tuple[float, float]:
        """Stop sampling; returns (seconds of kernel runs started before
        ``end``, median kernel time). One more run after stopping makes sure
        a job shorter than the period still has a sample."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        busy = sum(seconds for start, seconds in self.ticks if start < end)
        return busy, statistics.median(seconds for _, seconds in self.ticks)
