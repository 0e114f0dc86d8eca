"""The machine's current speed, read off a fixed reference kernel.

The shared virtual machines this benchmark runs on change speed by up
to 3x, over seconds and over hours, with no steal time to show for it.
Throughput is therefore counted in *reference seconds*: wall time
scaled by how fast the reference kernel ran on the same machine while
the work ran, against :data:`REFERENCE_KERNEL_S`.  The kernel is numpy
only (dense solve, ``exp``, matrix-vector product at the 5-stage ring's
size), never the program's code, so a change to the program moves the
scaled time exactly as it moves the wall time.

:class:`SpeedSampler` serves single-threaded operations: it samples the
kernel at the start of each and then every :data:`INTERVAL_S` from a
``SIGALRM`` handler, so a multi-second operation is sampled throughout,
not only at its edges; the handler's own time is taken out of the
operation's.  Work spread over several cores is instead sampled where
it is idle, with :func:`kernel_seconds` and :func:`scale`.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds one kernel call takes on the reference machine.  A fixed
#: round figure (a 2-vCPU Intel Xeon virtual machine takes 1.2-3 ms);
#: only its constancy matters.
REFERENCE_KERNEL_S = 1.0e-3
#: Kernel calls per sample (about 10 ms).
CALLS = 8
#: Seconds between samples inside an operation.
INTERVAL_S = 0.2

_RNG = np.random.default_rng(20240917)
_SIZE = 87
_A = _RNG.standard_normal((_SIZE, _SIZE)) + _SIZE * np.eye(_SIZE)
_B = _RNG.standard_normal(_SIZE)
_X = _RNG.standard_normal(64)


def kernel() -> None:
    for _ in range(20):
        np.linalg.solve(_A, _B)
        np.exp(_X * 0.01)
        np.dot(_A, _B)


def kernel_seconds() -> float:
    """Seconds per kernel call, averaged over one sample."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        kernel()
    return (time.perf_counter() - t0) / CALLS


def scale(wall: float, samples) -> float:
    """``wall`` seconds in reference seconds, given kernel samples taken
    while it ran."""
    return wall * REFERENCE_KERNEL_S * len(samples) / sum(samples)


class SpeedSampler:
    """Times single-threaded operations in wall and reference seconds.

    Use as a context manager around the operations; it owns ``SIGALRM``
    while open.  An inactive sampler (the traced run) takes no samples
    and reports wall time as reference time.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self._paused = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self):
        if not self.active:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if not self.active:
            return False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self) -> None:
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self._paused += time.perf_counter() - t0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def time(self, operation):
        """Run ``operation()``; return ``(result, wall_s, reference_s)``.

        ``wall_s`` leaves out the sampler's own time.
        """
        if not self.active:
            t0 = time.perf_counter()
            result = operation()
            wall = time.perf_counter() - t0
            return result, wall, wall
        first = len(self.samples)
        self._sample()
        paused = self._paused
        t0 = time.perf_counter()
        result = operation()
        # A tick that lands before this line counts in both the elapsed
        # and the paused time; after it, ticks are skipped.
        self._busy = True
        wall = time.perf_counter() - t0 - (self._paused - paused)
        self._busy = False
        return result, wall, scale(wall, self.samples[first:])
