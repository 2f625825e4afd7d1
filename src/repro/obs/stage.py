"""Stage-level timing instrumentation.

The paper's §VI.C argument ("the matrix filtering operations on A_H and
A_L were noted to consume 35-40% of the run time") needs a per-stage time
breakdown.  :class:`StageTimer` accumulates wall-clock by stage label with
negligible overhead when disabled (the null object pattern —
:data:`NO_TIMER` — costs one attribute lookup per stage).

The timer predates the unified observability substrate and remains the
solver-facing accounting surface (``profile=`` on
:class:`~repro.sssp.result.SSSPResult`); it now also *bridges* into it:
construct with a :class:`~repro.obs.recorder.Recorder` and every stage
occurrence additionally lands as a trace span under the same label — the
old totals and the new timeline agree by construction — and
:meth:`StageTimer.feed` pushes the accumulated totals into the
recorder's metrics registry.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

__all__ = ["StageTimer", "NullTimer", "NO_TIMER"]


class StageTimer:
    """Accumulates seconds and hit counts per stage label.

    *recorder* (optional, any truthy :class:`~repro.obs.recorder.Recorder`)
    mirrors each stage occurrence as a trace span of the same name, so
    the stage totals equal the per-label span-duration sums.
    """

    __slots__ = ("totals", "counts", "_order", "_recorder")

    def __init__(self, recorder: Any = None) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._order: list[str] = []
        self._recorder = recorder if recorder else None

    @contextmanager
    def stage(self, label: str, **args: Any) -> Iterator[Any]:
        """Context manager timing one stage occurrence.

        Extra keyword *args* are attached to the mirrored trace span
        (and ignored when no recorder is bound).  The context value is
        that span, for args known only at the end (``None`` without a
        recorder).
        """
        if label not in self.totals:
            self._order.append(label)
        span = self._recorder.span(label, **args) if self._recorder else None
        if span is not None:
            span = span.__enter__()
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            dt = time.perf_counter() - t0
            self.totals[label] += dt
            self.counts[label] += 1
            if span is not None:
                span.__exit__(None, None, None)

    def add(self, label: str, seconds: float) -> None:
        """Record an externally-measured duration."""
        if label not in self.totals:
            self._order.append(label)
        self.totals[label] += seconds
        self.counts[label] += 1

    def feed(self, recorder: Any) -> None:
        """Push the accumulated stage totals into *recorder*'s metrics.

        Each label lands as a gauge ``stage.<label>.seconds`` (the
        total) and a counter ``stage.<label>.hits``; call once at the
        end of a run — the counter form accumulates across feeds.
        """
        if not recorder:
            return
        for label in self._order:
            recorder.set_gauge(f"stage.{label}.seconds", self.totals[label])
            recorder.inc(f"stage.{label}.hits", self.counts[label])

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def fractions(self) -> dict[str, float]:
        """Stage → share of total time (the §VI.C percentages)."""
        total = self.total
        if total == 0:
            return {k: 0.0 for k in self._order}
        return {k: self.totals[k] / total for k in self._order}

    def as_dict(self) -> dict[str, float]:
        """Stage → accumulated seconds, in first-seen order."""
        return {k: self.totals[k] for k in self._order}

    def merged(self, groups: dict[str, list[str]]) -> dict[str, float]:
        """Re-bucket stages into coarser groups (missing stages count 0)."""
        return {
            gname: sum(self.totals.get(s, 0.0) for s in stages)
            for gname, stages in groups.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v * 1e3:.2f}ms" for k, v in self.as_dict().items())
        return f"StageTimer<{parts}>"


_NULL_CTX: nullcontext[None] = nullcontext()


class NullTimer:
    """Disabled timer: same interface, no accounting, ~zero overhead.

    ``stage`` hands back one shared :func:`~contextlib.nullcontext`
    (reentrant, stateless) instead of constructing a generator-backed
    context manager per call — in the fused hot loop the latter showed
    up as a measurable per-phase cost.
    """

    __slots__ = ()

    def stage(self, _label: str, **_args: Any) -> nullcontext[None]:
        return _NULL_CTX

    def add(self, _label: str, _seconds: float) -> None:
        pass

    def feed(self, _recorder: Any) -> None:
        pass

    @property
    def total(self) -> float:
        return 0.0

    def fractions(self) -> dict[str, float]:
        return {}

    def as_dict(self) -> dict[str, float]:
        return {}

    def merged(self, groups: dict[str, list[str]]) -> dict[str, float]:
        return {g: 0.0 for g in groups}


#: shared disabled-timer singleton
NO_TIMER = NullTimer()
