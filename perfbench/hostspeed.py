"""Timings scaled to a reference host speed.

The benchmark's virtual machine shares its cores with other tenants, and its
speed is not steady: the same computation, timed again and again, switches
between speeds up to about 2x apart and stays in each for seconds.  A run's
wall times therefore say as much about the host's state during the run as
about the program.

So the benchmark measures the host's speed alongside the program with a
fixed calibration kernel, whose CPU time (the least of `REPEATS` runs) says
how fast a core runs at that moment:

- `timed` brackets each call into the package with a kernel measurement
  right before and right after it, on the same thread.  Each stands for
  the core's speed over `EDGE` seconds at its end of the call.
- a `Probe` process measures the kernel every `PERIOD` seconds for the whole
  run.  Its measurements made more than `EDGE` seconds from either end of a
  longer call stand for the rest of that call.

The probe runs on whichever core is free.  Over a short stretch it tracks
the measured thread's core poorly: the log times of 0.2 s single-threaded
calls correlate with their bracketing measurements at about 0.8 and not at
all with the probe's.  Over long calls, and over calls that keep both
cores busy, it follows the host's drift better than the bracketing does.
A call's slowness is the time-weighted mean of these measurements over
`KERNEL_REF_S`, the kernel's CPU time at the reference speed.  Its
reference-speed time is its wall time over its slowness.  The reference is
the kernel's time in an ordinary host state of the 2-vCPU machine the
README's figures come from, so there reference-speed seconds read close to
wall seconds.  The kernel's own time is never counted as program time.

Run as a script, this file is the probe: it stops when its standard input
closes and then writes its measurements to standard output.
"""

from __future__ import annotations

import bisect
import json
import math
import select
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 3
KERNEL_REF_S = 1.0e-4  # kernel CPU time at the reference speed
PERIOD = 0.05  # seconds between the probe's measurements
EDGE = 0.25  # seconds of a call that each bracketing measurement stands for

_XS = [0.001 * i for i in range(1, 65)]


def kernel() -> float:
    """A fixed mix of interpreter work and float arithmetic; returns its sum."""
    total = 0.0
    for _ in range(8):
        for x in _XS:
            total += math.exp(-x) * x + math.lgamma(1.0 + x)
    return total


def kernel_time() -> float:
    """Least CPU time of REPEATS kernel runs on this thread."""
    best = math.inf
    for _ in range(REPEATS):
        c0 = time.thread_time()
        kernel()
        best = min(best, time.thread_time() - c0)
    return best


def timed(fn):
    """Call fn(); return (its value, its span (start, end, kernel before, kernel after))."""
    before = kernel_time()
    t0 = time.perf_counter()
    value = fn()
    t1 = time.perf_counter()
    return value, (t0, t1, before, kernel_time())


def wall(spans) -> float:
    """Wall-clock seconds of spans."""
    return sum(span[1] - span[0] for span in spans)


class Probe:
    """The probe process; once it has stopped, the slowness of any span of the run."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at each measurement
        self.costs: list[float] = []  # kernel CPU seconds it measured
        self._proc = None

    def __enter__(self) -> "Probe":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, exc_type, *_) -> None:
        try:
            out, _ = self._proc.communicate(timeout=30)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        if exc_type is not None:
            return
        if self._proc.returncode != 0:
            raise RuntimeError(f"host-speed probe exited {self._proc.returncode}")
        samples = json.loads(out)
        self.times = [t for t, _ in samples]
        self.costs = [c for _, c in samples]

    def slowness(self, span) -> float:
        """Time-weighted mean kernel time over a span, over the reference."""
        start, end, before, after = span
        edges = 0.5 * (before + after)
        inner = end - start - 2 * EDGE
        inside = self.costs[bisect.bisect_left(self.times, start + EDGE):
                            bisect.bisect_right(self.times, end - EDGE)]
        if inner <= 0 or not inside:
            return edges / KERNEL_REF_S
        mean = (2 * EDGE * edges + inner * sum(inside) / len(inside)) / (end - start)
        return mean / KERNEL_REF_S

    def scaled(self, spans) -> float:
        """Reference-speed seconds of spans."""
        return sum((span[1] - span[0]) / self.slowness(span) for span in spans)


def probe() -> None:
    """Measure the kernel every PERIOD seconds until standard input closes."""
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        cost = kernel_time()
        samples.append((time.perf_counter(), cost))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    probe()
