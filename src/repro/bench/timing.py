"""Timing primitives for the benchmark harness.

The paper timed with the RDTSC instruction; the portable equivalent is
``time.perf_counter_ns``.  Protocol: warmup runs (excluded), then repeat
runs; the *minimum* is the headline number (least noise on a shared
machine) with median/mean retained for dispersion reporting.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

from ..sssp.fused import _SPLIT_KEY

__all__ = ["TimingStats", "time_callable", "cold_split"]


@dataclass(frozen=True)
class TimingStats:
    """Wall-clock statistics over the repeat runs, in seconds."""

    best: float
    median: float
    mean: float
    repeats: int

    @property
    def best_ms(self) -> float:
        return self.best * 1e3

    @property
    def median_ms(self) -> float:
        return self.median * 1e3

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimingStats<best={self.best_ms:.3f}ms over {self.repeats} runs>"


def time_callable(
    fn: Callable[[], object],
    repeats: int = 3,
    warmup: int = 1,
    min_total_seconds: float = 0.0,
) -> TimingStats:
    """Measure *fn* with warmup; auto-extends repeats for tiny workloads.

    ``min_total_seconds`` keeps sub-millisecond measurements honest by
    repeating until the accumulated measured time passes the floor.
    """
    for _ in range(warmup):
        fn()
    samples: list[float] = []
    total = 0.0
    runs = 0
    while runs < repeats or total < min_total_seconds:
        t0 = time.perf_counter_ns()
        fn()
        dt = (time.perf_counter_ns() - t0) / 1e9
        samples.append(dt)
        total += dt
        runs += 1
        if runs >= 1000:  # hard cap against pathological floors
            break
    return TimingStats(
        best=min(samples),
        median=statistics.median(samples),
        mean=statistics.fmean(samples),
        repeats=len(samples),
    )


def cold_split(graph, fn: Callable[[], object]) -> Callable[[], object]:
    """*fn*, with *graph*'s cached light/heavy split dropped before each call.

    For races against a baseline that builds ``A_L``/``A_H`` on every
    call (the unfused GraphBLAS series, the frozen seed loop): each
    timed fused call then builds its split too, like for like.
    """

    def call():
        graph.meta.pop(_SPLIT_KEY, None)
        return fn()

    return call
