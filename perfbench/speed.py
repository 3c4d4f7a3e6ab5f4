"""Machine-speed calibration for the benchmark's times.

The speed of the reference machine (a 2-core VM) drifts by up to 2x over
tens of seconds, and CPU time rises with wall time, so raw times from runs
a few minutes apart disagree by more than any useful bound.  A run
therefore times a fixed unit of interpreter and small-matrix LAPACK work
(the mix the workloads spend their time on) while it measures: before the
first command, after each command and, inside a command, at the start of a
trial or probe step once ``INTERVAL_S`` has passed since the last sample.
The median of a few units over ``REFERENCE_UNIT_S`` is the speed factor at
that moment; the time between two samples divided by the mean factor at
its ends is in reference seconds, and the sampling itself is not timed.
Nothing runs alongside the program, so a change that adds worker
processes cannot slow the calibration.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np

# Median time of one unit on the reference machine.
REFERENCE_UNIT_S = 3.0e-4
# Least time between two samples inside a command.
INTERVAL_S = 0.25
# The suite functions that evaluate one trial or one probe step; they are
# looked up as module globals on every call, so a wrapper set on the module
# sees each call.
STEP_FUNCTIONS = ("_evaluate_trial", "_probe_evaluate")
_REPEATS = 9
# Bound once, so that tracing, which wraps numpy.linalg.eigh, never sees it.
_EIGH = np.linalg.eigh
_MATRIX = np.array([[2.0, 0.3, 0.1, 0.0],
                    [0.3, 1.5, 0.2, 0.1],
                    [0.1, 0.2, 1.0, 0.3],
                    [0.0, 0.1, 0.3, 0.8]])


def _unit() -> float:
    acc = 0.0
    for i in range(20):
        w, q = _EIGH(_MATRIX)
        acc += float(((q * w) @ q.T)[0, 0])
        for j in range(50):
            acc += (i ^ j) * 0.5
    return acc


def sample() -> float:
    """Current speed factor: above 1 when the machine runs slower than reference."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_UNIT_S


class Clock:
    """Raw and reference (wall, cpu) seconds of one pass's commands.

    The clock runs from its creation; ``mark`` ends the current segment at
    a speed sample and starts the next one after it.
    """

    def __init__(self, cpu_now):
        self._cpu_now = cpu_now
        self.raw = [0.0, 0.0]
        self.scaled = [0.0, 0.0]
        self._factor = sample()
        self._t0, self._cpu0 = time.perf_counter(), cpu_now()

    def due(self) -> bool:
        return time.perf_counter() - self._t0 >= INTERVAL_S

    def mark(self) -> None:
        spent = (time.perf_counter() - self._t0, self._cpu_now() - self._cpu0)
        factor = sample()
        for i, seconds in enumerate(spent):
            self.raw[i] += seconds
            self.scaled[i] += seconds * 2 / (self._factor + factor)
        self._factor = factor
        self._t0, self._cpu0 = time.perf_counter(), self._cpu_now()


@contextlib.contextmanager
def sampling_steps(suite, clock: Clock):
    """Let ``clock`` sample at trial and probe steps of this process."""
    pid = os.getpid()
    saved = {name: getattr(suite, name) for name in STEP_FUNCTIONS if hasattr(suite, name)}

    def hook(fn):
        def step(*args, **kwargs):
            if clock.due() and os.getpid() == pid:  # never in a forked worker
                clock.mark()
            return fn(*args, **kwargs)
        return step

    for name, fn in saved.items():
        setattr(suite, name, hook(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(suite, name, fn)
