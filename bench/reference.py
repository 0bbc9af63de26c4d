"""Machine-speed reference for the end-to-end times.

A shared 2-vCPU sandbox runs the same code at speeds that drift by a
factor of up to two over periods of ten seconds to minutes, so raw wall
times of 25-second runs spread by 10-25 % from run to run.  This fixed
computation does the same kinds of work as saddlelab (a numpy step loop
over a width-256 state vector, a scalar loop through numpy scalars, and
whole-array draws and scans like the hitting Monte Carlo's) and never
calls saddlelab.  Timed around every iteration, it tracks the drift: over
250 s of one workload, the spread of 25-second medians fell from 15 % raw
to 2.3 % (discrete-simulate) and from 16 % to 6.8 % (linear-exact) once
each wall time was divided by the reference time measured around it.
A workload that runs on a pool of N workers is referenced by N copies of
the computation run at once, one per process, since a single copy misses
how busy the other vCPU is.

REFERENCE_S is the reference's median on the machine the bounds were set
on (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6).  run.py divides each
wall time by the reference time around it over REFERENCE_S, so the times
it reports are seconds at that machine's typical speed.
"""

from __future__ import annotations

import multiprocessing
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.105

_NOISE = np.random.default_rng(0).standard_normal((256, 1000))
_GEN = np.random.default_rng(1)
_BARRIER = None


def reference_s() -> float:
    """Seconds one run of the fixed reference computation takes now."""
    start = perf_counter()
    x = np.zeros(256)
    peak = x.copy()
    for i in range(1000):
        x += np.minimum(np.abs(x), 10.0) ** 2.0 * 0.001 + _NOISE[:, i] * 0.01
        np.maximum(peak, x, out=peak)
    y = 0.0
    for _ in range(20_000):
        y = y + (float(np.minimum(np.abs(y), 10.0) ** 2.0) * 1e-4 + 1e-4)
    for _ in range(4):
        walk = np.cumsum(_GEN.standard_normal((4000, 64)), axis=1)
        (walk >= 1.0).any(axis=1)
        np.exp(-2.0 * np.abs(walk[:, :-1] * walk[:, 1:]))
    return perf_counter() - start


def _init_worker(barrier) -> None:
    global _BARRIER
    _BARRIER = barrier


def _reference_together(_) -> float:
    _BARRIER.wait(timeout=60)  # every worker starts the reference at the same moment
    return reference_s()


class SpeedTracker:
    """Reference times taken between timed runs of something else.

    Call ``mark()`` before the first run and after each one; ``scale(i)``
    is then the machine's slowness during run i relative to REFERENCE_S
    (the mean of the references taken just before and just after it).
    With jobs > 1 each mark runs the reference in `jobs` processes at once
    and keeps their mean; ``close()`` stops those processes and waits for
    them.  The processes are forked: a spawn context would also start
    multiprocessing's resource tracker, which outlives this process.
    """

    def __init__(self, jobs: int = 1):
        self.refs: list = []
        self._jobs = jobs
        self._pool = None
        if jobs > 1:
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(jobs, initializer=_init_worker,
                                  initargs=(ctx.Barrier(jobs),))

    def mark(self) -> None:
        if self._pool is None:
            self.refs.append(reference_s())
        else:
            times = self._pool.map(_reference_together, range(self._jobs), chunksize=1)
            self.refs.append(statistics.mean(times))

    def scale(self, i: int) -> float:
        return (self.refs[i] + self.refs[i + 1]) / 2.0 / REFERENCE_S

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()      # idle by now, or the run is failing
            self._pool.join()
            self._pool = None
