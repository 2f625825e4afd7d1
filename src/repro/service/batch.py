"""Multi-source batched delta-stepping: K searches per relaxation wave.

The paper expresses a relaxation wave as ``tReq = A_Lᵀ (min.+) (t ∘ tBi)``
— a ``vxm`` over one frontier *vector*.  Stacking K frontiers as the rows
of a K×n matrix lifts the same wave to one ``mxm``: every phase relaxes
the light (or heavy) edges of **all K searches simultaneously**, so the
per-phase fixed costs (bucket pop, candidate gather, the Python dispatch
itself) are paid once per wave instead of once per source.  That
amortization is where the batch throughput win comes from — the same
bucket-fusion observation as Dong et al. 2021 ("Efficient Stepping
Algorithms and Implementations for Parallel Shortest Paths").

One engine.  A batch solve is a repair whose state starts all-``inf``
and whose seeds are the K sources, so :func:`batch_fused_delta_stepping`
sets ``t[k·n + s_k] = 0`` on one flat K·n state and hands it to
:func:`repro.sssp.fused.relax_rows` — the one K-row wave loop, scheduled
by one :class:`~repro.kernels.BucketQueue`, that also runs the
single-source solve (K=1) and repairs cached distances after a
mutation.

Dispatch (:func:`batch_delta_stepping`):

- ``method="delta"`` (default) — the shared-wave engine above;
- any other :data:`repro.stepping.STEPPERS` spec, including a
  parameterized ``"delta(kernel=scatter)"`` — :func:`batch_stepper_loop`,
  K independent runs of that stepper packaged as one batch.

Bucket synchronization: all K sources share the global bucket index
``i`` (bucket = ``[iΔ, (i+1)Δ)``).  Relaxations never cross rows, so each
row's bucket sequence is identical to its own single-source run; sources
with nothing in bucket ``i`` simply contribute no frontier entries and
wait.  Distances are therefore *exactly* those of K independent runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..sssp.delta import check_delta, choose_delta
from ..sssp.fused import relax_rows
from ..sssp.result import INF, SSSPResult

# min_by_target and split_csr_light_heavy stay bound here: perfbench's
# traced run wraps them by these names in this module
from ..kernels import min_by_target  # noqa: F401
from ..sssp.fused import split_csr_light_heavy  # noqa: F401

__all__ = [
    "BatchSSSPResult",
    "batch_delta_stepping",
    "batch_fused_delta_stepping",
    "batch_stepper_loop",
]

#: flattened K·n state-size guard — past this, chunk the sources instead
#: (the service planner does; see :mod:`repro.service.planner`)
MAX_STATE_ENTRIES = 1 << 27


@dataclass
class BatchSSSPResult:
    """Distances from K sources plus aggregate work counters.

    ``distances[k, v]`` is the shortest distance from ``sources[k]`` to
    ``v`` (``inf`` when unreachable).  Counters aggregate over the whole
    batch; phases count shared waves, not per-source waves — that gap is
    the batching win.
    """

    distances: np.ndarray
    sources: np.ndarray
    delta: float
    method: str
    buckets_processed: int = 0
    phases: int = 0
    relaxations: int = 0
    updates: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def n(self) -> int:
        return self.distances.shape[1]

    def result_for(self, k: int) -> SSSPResult:
        """Row *k* repackaged as a single-source :class:`SSSPResult`."""
        if not 0 <= k < self.num_sources:
            raise IndexError(f"batch row {k} out of range [0, {self.num_sources})")
        return SSSPResult(
            distances=self.distances[k].copy(),
            source=int(self.sources[k]),
            delta=self.delta,
            method=self.method,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchSSSPResult<{self.method}: K={self.num_sources}, n={self.n}, "
            f"phases={self.phases}>"
        )


def _check_sources(graph: Graph, sources) -> np.ndarray:
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    if len(src) == 0:
        raise ValueError("batch needs at least one source")
    n = graph.num_vertices
    if src.min() < 0 or src.max() >= n:
        raise IndexError(f"source out of range [0, {n})")
    return src


def batch_fused_delta_stepping(graph: Graph, sources, delta: float = 1.0) -> BatchSSSPResult:
    """Shared-wave batch engine: K sources relaxed as rows of one K·n state.

    Row k starts all-``inf`` except ``t[k·n + s_k] = 0``; the rows then
    relax together through :func:`repro.sssp.fused.relax_rows`.
    Counters are those of the shared waves.
    """
    check_delta(delta)
    src = _check_sources(graph, sources)
    K, n = len(src), graph.num_vertices
    if K * n > MAX_STATE_ENTRIES:
        raise ValueError(
            f"batch state K*n = {K * n} exceeds {MAX_STATE_ENTRIES}; "
            "chunk the sources (the service planner does this)"
        )
    t = np.full(K * n, INF, dtype=np.float64)
    seeds = np.arange(K, dtype=np.int64) * n + src
    t[seeds] = 0.0
    counters = relax_rows(graph, t, seeds, delta)
    return BatchSSSPResult(
        distances=t.reshape(K, n),
        sources=src,
        delta=delta,
        method="batch-delta",
        buckets_processed=counters["buckets"],
        phases=counters["phases"],
        relaxations=counters["relaxations"],
        updates=counters["updates"],
    )


def batch_stepper_loop(
    graph: Graph, sources, stepper: str = "rho", recorder=None
) -> BatchSSSPResult:
    """K independent runs of a registered stepper, packaged as a batch.

    The adapter that lets the multi-source engine dispatch to **any**
    member of the :data:`repro.stepping.STEPPERS` portfolio: no shared
    waves (each stepper owns its schedule), but the same
    :class:`BatchSSSPResult` surface, so the service planner can route a
    tuned stepper choice through the existing execution path unchanged.
    *stepper* may carry spec params (``"sharded(shards=2)"``) — the
    auto-tuner's picks arrive in that spelling.  Counters aggregate
    across the K runs; phases here count per-source waves (there is no
    batching win to report).  A truthy *recorder* (:mod:`repro.obs`)
    forwards into every per-source solve.
    """
    from ..stepping import resolve_stepper_spec

    src = _check_sources(graph, sources)
    s, params = resolve_stepper_spec(stepper)
    if recorder:
        params = {**params, "recorder": recorder}
    K, n = len(src), graph.num_vertices
    distances = np.full((K, n), INF, dtype=np.float64)
    counters = {"buckets": 0, "phases": 0, "relaxations": 0, "updates": 0}
    for k in range(K):
        r = s.solve(graph, int(src[k]), **params)
        distances[k] = r.distances
        counters["buckets"] += r.buckets_processed
        counters["phases"] += r.phases
        counters["relaxations"] += r.relaxations
        counters["updates"] += r.updates
    return BatchSSSPResult(
        distances=distances,
        sources=src,
        delta=float("nan"),
        method=f"batch-loop:{stepper}",
        buckets_processed=counters["buckets"],
        phases=counters["phases"],
        relaxations=counters["relaxations"],
        updates=counters["updates"],
    )


def batch_delta_stepping(
    graph: Graph,
    sources,
    delta: float | None = None,
    method: str = "delta",
    recorder=None,
) -> BatchSSSPResult:
    """Run SSSP from all *sources*, batched where the method supports it.

    Parameters
    ----------
    graph:
        A :class:`repro.graphs.Graph` (non-negative weights).
    sources:
        Sequence of source vertex ids (duplicates allowed — each gets its
        own row).
    delta:
        Bucket width Δ; ``None`` selects it automatically
        (:func:`repro.sssp.delta.choose_delta`).  Ignored by
        stepper-dispatched methods (each stepper picks its own knobs).
    method:
        A :data:`repro.stepping.STEPPERS` spec.  A bare ``"delta"``
        (default) runs the shared-wave engine
        (:func:`batch_fused_delta_stepping`); every other spec — a bare
        name or a parameterized form like ``"sharded(shards=4)"`` or
        ``"delta(kernel=scatter)"`` — runs through
        :func:`batch_stepper_loop`.
    recorder:
        A truthy :class:`repro.obs.Recorder` wraps the shared-wave engine
        in a ``batch:delta`` span (sources count as an arg) and forwards
        into stepper-dispatched solves.  Recording never changes the
        distances.
    """
    from ..stepping import STEPPERS, parse_stepper_spec

    name, params = parse_stepper_spec(method)
    if name not in STEPPERS:
        raise ValueError(
            f"unknown batch method {method!r}; known: {', '.join(STEPPERS)}"
        )
    if name != "delta" or params:
        return batch_stepper_loop(graph, sources, stepper=method, recorder=recorder)
    if delta is None:
        delta = choose_delta(graph)
    if not recorder:
        return batch_fused_delta_stepping(graph, sources, delta)
    with recorder.span("batch:delta", sources=int(np.size(np.asarray(sources)))) as sp:
        result = batch_fused_delta_stepping(graph, sources, delta)
        sp.set(phases=result.phases, relaxations=result.relaxations)
    return result
