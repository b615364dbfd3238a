"""Machine-speed sampling, so that wall times can be scaled to one speed.

On the 2-vCPU Xeon virtual machine the baseline was recorded on, each CPU
switches between a fast and a slow speed, about 1.5x apart, every few
seconds, whatever runs on it; the raw median pass time of one 20 s run moved
by 20% from run to run. A timed interval therefore runs inside a
``Yardstick``: a fixed 2 ms loop of interpreter work runs on entry, on exit
and, from a timer signal, every ``INTERVAL_S`` seconds in between. ``scaled``
removes the kernel's own time from a wall time measured inside the block and
scales it to the speed at which the kernel takes ``REFERENCE_S``. The kernel
never runs dirout code, so a change to dirout moves the scaled time as it
moves the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_LOOP = 25_000
REFERENCE_S = 0.0015  # kernel() on the machine above at its fast speed
INTERVAL_S = 0.2


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds.

    Interpreter work only: in trials, adding a numpy sort to the kernel made
    the scaled times of the CSV workload less steady, not more.
    """
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class Yardstick:
    """Context manager sampling machine speed while its block runs.

    With ``interval=0`` it samples on entry and exit only, so that it can
    bracket a traced pass without running inside its spans.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in timer-driven samples
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Yardstick":
        self.samples.append(kernel())
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured inside the block, less sampling, at the reference speed."""
        return (seconds - self.spent) * REFERENCE_S / statistics.mean(self.samples)
