"""Host-speed calibration sampled while the ops run.

The benchmark runs on shared virtual machines whose speed drifts by
+-30% over tens of seconds as neighbours load the host (measured on a
2-vCPU VM: 5-second medians of one fixed 68-point distribution-function
sweep ranged 34-65 ms within a minute, with process CPU time tracking
wall time, so the slowdown is contention, not descheduling).  Averaging
longer does not remove drift that slow.

So each worker pins itself to one CPU and runs a :class:`Sampler`
thread that, every ``PERIOD_S``, times one fixed stdlib-only
calibration op in thread CPU time.  On one CPU the calibration pauses
the op rather than running beside it, so an op's time is its wall time
minus the calibration CPU time spent inside it, and its host factor is
``NOMINAL_S`` over the median calibration time within ``WINDOW_S`` of
the op.  Times are reported at that nominal host speed.  Over two
minutes in which ``validate`` ops took 5.1-6.3 s of wall time, the
scaled times stayed within 5.2-5.7 s; calibrating only between ops had
left them at 5.4-9.9 s, since a 6-second op hides most of the drift.

The calibration uses nothing from the package under test, so a change
to the package moves the scaled times exactly as it moves the raw ones.
It must never change, or figures from before and after stop comparing.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

#: Median calibration time inside ops on the 2-vCPU development VM; it
#: only sets the scale of the reported times.
NOMINAL_S = 1.3e-3
PERIOD_S = 0.05
WINDOW_S = 0.25


def _step(a: float, b: float) -> float:
    return a * 0.5 + math.exp(-b) if b < 50.0 else a


def calibration_op() -> float:
    """Fixed interpreter work: float loops with math calls, dict updates, a keyed sort."""
    acc = 0.0
    for i in range(1, 1500):
        x = i * 0.37
        acc += math.lgamma(x) * 1e-6 + math.log(x)
        acc = _step(acc, x)
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    order = sorted(range(800), key=lambda v: (v * 7919) % 1000)
    return acc + order[0] + counts[0]


class Sampler:
    """Times ``calibration_op`` every PERIOD_S on a background thread.

    ``samples`` holds (perf_counter at the end, thread CPU seconds) per
    calibration; only the sampler thread appends to it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> "Sampler":
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        os.sched_setaffinity(0, self._cpus)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            calibration_op()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(calibration CPU seconds inside [start, end], host factor for that interval)."""
        samples = list(self.samples)
        inside = sum(c for t, c in samples if start <= t <= end)
        near = [c for t, c in samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            raise RuntimeError(f"no calibration ran within {WINDOW_S} s of an op")
        return inside, NOMINAL_S / statistics.median(near)
