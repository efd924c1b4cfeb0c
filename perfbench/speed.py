"""Machine-speed probe that steadies the timed passes.

The benchmark runs on a few cores of a shared host.  As other tenants load
the host, each core's speed flips between modes up to 1.7x apart, often
within a second, and the process's CPU time moves with its wall time, so
neither alone can tell a slower program from a slower machine.  The probe
measures the machine's speed where and when the program runs: while it is
armed, a timer interrupts the worker's main thread every ``PERIOD_S``
seconds and runs a fixed reference kernel there.  The kernel's duration
tracks the speed of the core at that moment.  The benchmark subtracts the
kernel runs from the pass they interrupted and scales pass times to a
machine on which the kernel takes ``REFERENCE_S`` seconds.  ``SETUP_PROBE``
does the same for the set-up time, inside the interpreter it times.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Kernel time of the reference machine.  On the 2-vCPU virtual machine the
# first baseline comes from, the kernel takes 0.29 ms or 0.5-0.7 ms,
# depending on the speed mode of its core.
REFERENCE_S = 0.5e-3

_DATA = np.random.default_rng(0).standard_normal(4096)


def kernel() -> float:
    """Wall time of one run of the reference kernel, about 0.6 ms.

    The kernel is a few small numpy calls, each a Python call into C over
    an array that fits in L1.  Of the kernels tried (an interpreted loop,
    small numpy calls, fresh small arrays, streaming over 2 and 16 MiB,
    and mixes of these), none tracked every workload best, and this one
    did best overall.  It tracks memory-bound slowdowns least well.
    """
    start = time.perf_counter()
    for _ in range(8):
        np.sin(_DATA).sum()
    return time.perf_counter() - start


def scale(kernel_s: list[float]) -> float:
    """Factor that turns times measured at the speed these kernel runs show
    into times on the reference machine.

    Each vCPU flips between speeds that differ by up to 1.7x within a
    fraction of a second.  Kernel runs are spaced evenly in time, so the
    work a program does in a window is proportional to the mean of the
    kernel's speed, 1/time, over its runs: the harmonic mean of their
    times.  A run that a descheduling stretches adds little to it.
    """
    return REFERENCE_S / statistics.harmonic_mean(kernel_s)


# The set-up probe: a fresh interpreter imports the CLI module while a timer
# runs an import-like kernel (unmarshal and run a small module) in it every
# SETUP_PERIOD_S, then prints the clock, the kernel's total time and each
# kernel time.  It cannot use ``kernel``: numpy is part of what it times.
# time.perf_counter reads CLOCK_MONOTONIC, which all processes share.
SETUP_PERIOD_S = 0.02
SETUP_REFERENCE_S = 0.3e-3
SETUP_PROBE = f"""
import json, marshal, signal, time
_module = marshal.dumps(compile(
    "def f(x):\\n    return [x + i for i in range(10)]\\n"
    "class C:\\n    a = 1\\n    def g(self):\\n        return self.a\\n" * 8, "m", "exec"))
_kernel_s = []
def _tick(signum, frame):
    start = time.perf_counter()
    for _ in range(2):
        exec(marshal.loads(_module), {{}})
    _kernel_s.append(time.perf_counter() - start)
signal.signal(signal.SIGALRM, _tick)
signal.setitimer(signal.ITIMER_REAL, {SETUP_PERIOD_S}, {SETUP_PERIOD_S})
import fisherband.cli
signal.setitimer(signal.ITIMER_REAL, 0.0)
print(json.dumps([time.perf_counter(), sum(_kernel_s), _kernel_s]))
"""


def setup_scale(kernel_s: list[float]) -> float:
    """``scale`` for the kernel of the set-up probe."""
    return SETUP_REFERENCE_S / statistics.harmonic_mean(kernel_s)


class SpeedProbe:
    """Context manager that runs the kernel on a timer while it is open."""

    def __init__(self):
        # (start, duration) of every kernel run
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, kernel()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def interrupted_s(self, start: float, end: float) -> float:
        """Kernel time spent inside [start, end).  The kernel runs in the
        interrupted thread, so a run that starts inside ends inside."""
        return sum(duration for begin, duration in self.samples if start <= begin < end)

    def kernel_s(self) -> list[float]:
        return [duration for _, duration in self.samples]
