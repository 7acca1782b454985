"""Fixed reference kernels, timed between the operations of every pass.

The machine the benchmark was written on (a shared 2-vCPU VM) changes speed
by tens of percent from one second to the next and for tens of seconds at a
time, and every kind of estimate taken from the program's own times (fastest
pass, per-operation minima, medians) followed those swings.  A kernel of the
same kind of work as the program, run in the same stretches of time, slows
down with it, so the program's times divided by the kernel's cancel most of
the swing.

Two kernels, chosen by the kind of operation:

- in-process operations: ``np.polyval`` of three quartics on 256 points of
  the unit circle and the peak modulus, the small-array numpy and Python mix
  the library's certificate and simulation paths are made of;
- operations that are fresh processes (the CLI) and the set-up samples: a
  fresh interpreter that imports numpy, the start-up both are mostly made
  of.

Of the kernels tried on that machine (LAPACK roots, a 4096-point grid, a
pure-Python loop, a bare interpreter, these two), these tracked their
workloads' speed best.  They use only the interpreter, numpy and fixed
inputs; nothing the program does changes what they compute.  A kernel's
``reference_s`` is its duration at the reference speed, so rescaled times
read as seconds on a machine where one kernel run takes that long.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_rng = np.random.default_rng(20170307)
_POLYS = [_rng.standard_normal(5) for _ in range(3)]
_CIRCLE = np.exp(1j * np.linspace(0.0, np.pi, 256))


def _numpy_kernel() -> None:
    for p in _POLYS:
        float(np.max(np.abs(np.polyval(p, _CIRCLE))))


def _interpreter_kernel() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], None]
    # Kernel time per program time: after each operation, kernel runs are
    # added until they make up this share of the pass so far, so the samples
    # spread over the pass in proportion to where its time goes.
    share: float
    reference_s: float


IN_PROCESS = Kernel(_numpy_kernel, 0.1, 80e-6)
# About one interpreter start after each CLI call.
PROCESS = Kernel(_interpreter_kernel, 0.4, 0.2)


def run_ns(kernel: Kernel) -> int:
    """One timed kernel run, in nanoseconds."""
    t0 = time.perf_counter_ns()
    kernel.run()
    return time.perf_counter_ns() - t0


class PassCalibration:
    """Kernel samples of one pass."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples: list[int] = []
        self.total_ns = 0

    def top_up(self, program_ns: int) -> None:
        """Run the kernel until it has taken its share of ``program_ns``,
        the program's time in the pass so far."""
        while self.total_ns < self.kernel.share * program_ns:
            dt = run_ns(self.kernel)
            self.samples.append(dt)
            self.total_ns += dt

    def scale(self) -> float:
        """Factor that turns this pass's times into reference-speed times.
        The mean, as the pass time it divides is a sum: a slow stretch counts
        in both alike."""
        return self.kernel.reference_s * 1e9 / statistics.fmean(self.samples)
