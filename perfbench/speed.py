"""Speed of the core the benchmark runs on, sampled while the ops run.

On a shared 2-vCPU x86_64 VM, the same single-threaded code ran up to 2x
slower for stretches of a second to many minutes while other tenants loaded
the host, without any steal time showing; raw op times spread by 15-30%
(quartile distance over median) from run to run. A timer signal therefore
runs a 1 ms probe every 50 ms in the benchmark's own thread. An op's
speed-adjusted time is its measured time, less the probes that ran inside
it, times ITER_REF_S over the mean probe time per iteration around it: the
seconds the op would take on a machine that runs the probe at ITER_REF_S per
iteration (roughly the idle reference box, so adjusted and raw times agree
there).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

SAMPLE_ITERS = 300
SAMPLE_INTERVAL_S = 0.05
WINDOW_S = 0.15
MIN_SAMPLES = 3
ITER_REF_S = 3.3e-6

_M = np.arange(16.0).reshape(4, 4) / 10.0
_V = np.arange(4.0)


def probe(iters: int = SAMPLE_ITERS) -> float:
    """Seconds per iteration of a fixed mix of interpreter work and 4x4 products."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(iters):
        acc += float(_V @ (_M @ (_M @ _V))) * 1e-9 + i
    return (perf_counter() - t0) / iters


class SpeedSampler:
    """Context manager that samples the probe speed on SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, s per iter)
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        per_iter = probe()
        self.samples.append((t0, perf_counter(), per_iter))

    def adjust(self, start: float, end: float) -> float:
        """Speed-adjusted seconds of the interval [start, end]."""
        busy = sum(e - s for s, e, _ in self.samples if start <= s < end)
        near = [p for s, _, p in self.samples if start - WINDOW_S <= s <= end + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            closest = sorted(self.samples, key=lambda x: abs(x[0] - mid))[:MIN_SAMPLES]
            near = [p for _, _, p in closest] or [probe()]
        return (end - start - busy) * ITER_REF_S / statistics.fmean(near)

    def median_probe(self) -> float:
        return statistics.median(p for _, _, p in self.samples) if self.samples else probe()
