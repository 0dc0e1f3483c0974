"""CPU speed probe: converts wall time to time at a fixed reference speed.

On the 2-core machine this benchmark was tuned on, the same deterministic
work ran at speeds up to 2x apart, switching within seconds and sometimes
staying slow for half a minute, with nothing else running in the container.
Wall time alone then moves more between runs than any useful regression
bound. While the benchmark runs, a thread times a fixed piece of work (no
tinyembed code) in its own CPU time every 20 ms. An interval's wall time,
scaled by the reference probe time over the median probe time sampled during
the interval, is the time the work would have taken at the reference speed.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.02
# CPU time of one probe sample at the reference speed: about the fast speed of
# the tuning machine, so scaled times read close to its unhindered wall times.
REFERENCE_S = 2.0e-4
# Intervals shorter than this are scaled by the samples around them.
MIN_WINDOW_S = 0.5

_A = np.ones((16, 64), dtype=np.float32)
_W = np.ones((64, 64), dtype=np.float32)


def _probe_work() -> None:
    """The kinds of work the program does: interpreter arithmetic, small numpy
    calls, and allocating and sorting Python objects."""
    x = 0
    for i in range(500):
        x += i * i
    for _ in range(15):
        float(((_A @ _W) * 2.0).sum())
    rows = [{"i": i, "v": (i, i + 1)} for i in range(80)]
    rows.sort(key=lambda r: -r["i"])


class SpeedProbe:
    """Use as a context manager; the sampling thread stops and is joined on exit."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, probe CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            _probe_work()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would have taken at the reference speed."""
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2)
        probe_s = [s for t, s in self.samples if start - pad <= t <= end + pad]
        if not probe_s:
            raise RuntimeError("speed probe took no sample near the interval")
        return (end - start) * REFERENCE_S / statistics.median(probe_s)
