"""Machine-speed reference, for timings that hold still on a shared host.

On a host whose cores are shared with other tenants, the same work can
run up to 1.9 times slower for seconds to minutes at a time, far more than any
bound a benchmark could fix.  So while a phase runs, the benchmark samples
a fixed reference kernel (softmax and rank sort of 8-wide rows, the kind
of per-row work that dominates training), at most every
``INTERVAL_S``, from a wrapper on calls the program makes often.  A
phase's times are then scaled by ``NOMINAL_SAMPLE_S`` over the
time-weighted mean sample: they read in seconds at the reference speed.
The probes' own time is subtracted first.  Raw seconds are printed too.
A workload whose op is a few large numpy calls is sampled only between
its ops.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL_S = 0.05
KERNEL_REPEATS = 3  # a sample is the fastest of these, so one interrupt does not count
# one kernel run on an uncontended 2-vCPU x86-64 (Xeon) container; only
# the scale of the reported figures depends on it
NOMINAL_SAMPLE_S = 4.0e-4
_ROWS = np.random.default_rng(0).standard_normal((40, 8))


def reference_kernel() -> float:
    acc = 0.0
    for row in _ROWS:
        shifted = row - np.max(row)
        e = np.exp(shifted)
        p = e / np.sum(e)
        acc += float(np.argsort(p, kind="stable")[0])
    return acc


class SpeedProbe:
    """Samples the reference kernel and converts raw intervals."""

    def __init__(self):
        # (start, end, fastest kernel run) per sample
        self.samples: list[tuple[float, float, float]] = []
        self._last = float("-inf")

    def sample(self) -> None:
        clock = time.perf_counter
        start = clock()
        fastest = float("inf")
        for _ in range(KERNEL_REPEATS):
            t = clock()
            reference_kernel()
            fastest = min(fastest, clock() - t)
        end = clock()
        self.samples.append((start, end, fastest))
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def hook(self, fn):
        """``fn`` with a sample taken first when one is due."""
        def probed(*args, **kwargs):
            self.maybe_sample()
            return fn(*args, **kwargs)

        probed.__wrapped__ = fn
        return probed

    def probe_time(self, start: float, end: float) -> float:
        """Time spent sampling inside [start, end]."""
        return sum(e - s for s, e, _ in self.samples if start <= s and e <= end)

    def slowdown(self, start: float, end: float) -> float:
        """Time-weighted mean sample over [start, end], over the nominal one.

        Each gap between consecutive samples is weighted by its length and
        read at the mean of the two samples that bound it, so a long call
        between two samples counts for its whole length.  Samples just
        outside the interval bound its ends.
        """
        before = [x for x in self.samples if x[0] < start]
        inside = [x for x in self.samples if start <= x[0] <= end]
        after = [x for x in self.samples if x[0] > end]
        points = before[-1:] + inside + after[:1]
        if not points:
            raise ValueError("no speed samples near the interval")
        if len(points) == 1:
            return points[0][2] / NOMINAL_SAMPLE_S
        weighted = total = 0.0
        for (s0, _, d0), (s1, _, d1) in zip(points, points[1:]):
            gap = min(s1, end) - max(s0, start)
            if gap > 0:
                weighted += gap * (d0 + d1) / 2
                total += gap
        mean = weighted / total if total > 0 else np.mean([p[2] for p in points])
        return mean / NOMINAL_SAMPLE_S

    def adjusted(self, start: float, end: float, slowdown: float | None = None) -> float:
        """Seconds [start, end] would have taken at the reference speed."""
        if slowdown is None:
            slowdown = self.slowdown(start, end)
        return (end - start - self.probe_time(start, end)) / slowdown

    def sampled_inside(self, start: float, end: float) -> bool:
        return any(start <= s <= end for s, _, _ in self.samples)
