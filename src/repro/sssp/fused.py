"""Fused delta-stepping: the paper's direct-C implementation, in NumPy.

The paper's fastest sequential version (§VI.B) abandons per-operation
GraphBLAS calls and fuses:

1. **Hadamard + vxm** — ``tReq = A_Lᵀ (min.+) (t ∘ tBi)`` becomes one
   kernel: gather the CSR rows of the frontier, add the frontier's
   tentative distances, min-reduce by target.  No ``t ∘ tBi`` temporary,
   no sparse-vector materialization of ``tReq``.
2. **The vector triple** — computing ``tBi`` (re-entrants), ``S``
   (settled set) and ``t`` (min-merge) in one pass over the relaxation
   candidates instead of three full-vector operations with temporaries.

On top of Fig. 2's structure this removes every intermediate sparse
object from the hot loop.  The primitives themselves live in
:mod:`repro.kernels` and are shared by every stepper in the repo:

- the per-target min runs on either the ``argsort`` kernel (the seed's
  sort + ``reduceat``) or the O(m) dense ``scatter`` kernel, picked by
  wave density or pinned via ``kernel=`` (spec spelling:
  ``"delta(kernel=scatter)"``);
- all wave temporaries come out of a reusable
  :class:`~repro.kernels.RelaxWorkspace` arena (per-graph cached), so a
  steady-state phase allocates no wave-sized array;
- the outer loop walks a lazy :class:`~repro.kernels.BucketQueue`
  instead of rescanning all *n* tentative distances per bucket — the
  phase schedule (and the phase/relaxation/update counters) is
  unchanged, only the scheduling cost drops from O(n · buckets) to
  O(improvements).  (``buckets_processed`` counts only non-empty
  buckets, like the Meyer–Sanders reference; the seed's scan could
  additionally count phantom empty buckets at misrounded float
  boundaries.)

**K rows, one wave loop.**  :func:`relax_rows` is the repo's one
delta-stepping bucket loop.  The paper writes a relaxation wave as
``tReq = A_Lᵀ (min.+) (t ∘ tBi)``.  Stacking K distance vectors as the
rows of one flat ``k·n + v`` state lifts that ``vxm`` to an ``mxm``:
every row relaxes in shared light and heavy phases scheduled by one
:class:`~repro.kernels.BucketQueue`, so the fixed cost of a wave
(bucket pop, gather set-up, kernel dispatch) is paid once for all K
rows.  Relaxations never cross rows, so each row's distances are those
of its own run.  :func:`fused_delta_stepping` is the K=1 call (seed
``t[source] = 0``); a batch solve (:mod:`repro.service.batch`) seeds
``t[k·n + s_k] = 0``; a repair (:mod:`repro.dynamic.incremental`)
seeds each row from its invalidated, update-lowered cached distances.

Both paper fusions stay independently toggleable so the fusion ablation
(ABL-FUSE in DESIGN.md) can attribute the speedup:

- ``fuse_relax=False`` materializes ``tReq``/``tless``/``tB`` as full
  dense temporaries with one pass each (the unfused op sequence, minus
  sparse-object overhead);
- ``fuse_matrix_split=False`` builds ``A_L``/``A_H`` GrB-style — boolean
  predicate pass, then masked-copy pass, per matrix (4 sweeps), instead
  of one shared-predicate pass (2 sweeps).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..kernels import (
    BucketQueue,
    RelaxWorkspace,
    cached_row_ids,
    check_kernel,
    gather_candidates,
    min_by_target,
    workspace_for,
)
from ..obs.stage import NO_TIMER, StageTimer
from .delta import check_delta
from .result import INF, SSSPResult

__all__ = [
    "fused_delta_stepping",
    "relax_rows",
    "split_csr_light_heavy",
    "build_light_csr",
    "build_heavy_csr",
]

#: shared empty frontier — the relax waves' edgeless return, so the hot
#: loop never constructs a fresh empty array (``hot-loop-alloc`` rule)
_EMPTY_V = np.empty(0, dtype=np.int64)


def _compact_csr(graph: Graph, keep: np.ndarray):
    """Compact the kept adjacency entries into a new CSR triple.

    The row-id expansion is the per-graph cache
    (:func:`repro.kernels.cached_row_ids`) — computed once per epoch and
    shared by the light and heavy builds instead of re-expanded per call.
    """
    indices, weights = graph.indices, graph.weights
    n = graph.num_vertices
    counts = np.bincount(cached_row_ids(graph)[keep], minlength=n)
    sub_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return sub_indptr, indices[keep], weights[keep]


def split_csr_light_heavy(graph: Graph, delta: float, fused: bool = True, timer=NO_TIMER):
    """Split the CSR adjacency into light (≤Δ) and heavy (>Δ) CSR triples.

    ``fused=True``: one predicate pass shared by both outputs.
    ``fused=False``: mimics the GraphBLAS call sequence — each output
    recomputes its own predicate and materializes a masked intermediate.
    """
    weights = graph.weights

    if fused:
        with timer.stage("filter:split"):
            light = weights <= delta
            AL = _compact_csr(graph, light)
            AH = _compact_csr(graph, ~light)
    else:
        with timer.stage("filter:AL"):
            pred_light = weights <= delta  # pass 1: predicate
            masked_light = np.where(pred_light, weights, 0.0)  # pass 2: Hadamard
            AL = _compact_csr(graph, masked_light > 0)  # pass 3: compact
        with timer.stage("filter:AH"):
            pred_heavy = weights > delta
            masked_heavy = np.where(pred_heavy, weights, 0.0)
            AH = _compact_csr(graph, masked_heavy > 0)
    return AL, AH


def build_light_csr(graph: Graph, delta: float):
    """``A_L`` alone — one coarse task of the parallel decomposition."""
    return _compact_csr(graph, graph.weights <= delta)


def build_heavy_csr(graph: Graph, delta: float):
    """``A_H`` alone — the other coarse task."""
    return _compact_csr(graph, graph.weights > delta)


def relax_rows(
    graph: Graph,
    t: np.ndarray,
    seeds: np.ndarray,
    delta: float,
    *,
    kernel: str = "auto",
    fuse_relax: bool = True,
    fuse_matrix_split: bool = True,
    workspace: RelaxWorkspace | None = None,
    timer=NO_TIMER,
    recorder=None,
) -> dict[str, int]:
    """Relax the seeded flat state *t* in place to quiescence.

    *t* holds K rows of n distances (``key = k·n + v``) and *seeds* the
    unique keys whose distance was lowered since *t* was last quiescent
    (an all-``inf`` state is quiescent, so a solve seeds its sources).
    All rows share each light and heavy phase and one
    :class:`~repro.kernels.BucketQueue`.  Returns the
    ``buckets``/``phases``/``relaxations``/``updates`` counters of the
    shared waves; ``buckets`` counts non-empty buckets only.

    The keywords are those of :func:`fused_delta_stepping`: *kernel*,
    the two fusion toggles, *workspace* (replaces the per-graph arena),
    the stage *timer* and a truthy *recorder*, which adds one ``bucket``
    span per non-empty bucket (index, frontier size, phase count).  The
    min kernel's workspace covers the whole state: the arena for one
    row, a fresh K·n one for several.
    """
    n = graph.num_vertices
    row_len = n if len(t) > n else None
    (ALp, ALi, ALw), (AHp, AHi, AHw) = split_csr_light_heavy(
        graph, delta, fused=fuse_matrix_split, timer=timer
    )
    ws = workspace if workspace is not None else workspace_for(graph)
    min_ws = ws if row_len is None else RelaxWorkspace(len(t))
    # dense scratch for the unfused ablation only; the fused relax needs
    # no full-length temporaries at all
    in_bucket = None if fuse_relax else np.zeros(len(t), dtype=bool)
    counters = {"buckets": 0, "phases": 0, "relaxations": 0, "updates": 0}
    bq = BucketQueue(delta)
    bq.push(seeds, t[seeds])

    # A wave relaxes *frontier* through one CSR; *bucket* is the light
    # phase's window index, ``None`` for the heavy phase.
    def relax_unfused(indptr, indices, weights, frontier, bucket):
        """Unfused variant: full-length dense temporaries, one op per pass
        (the op-by-op shape of Fig. 2, on dense storage)."""
        targets, dists = gather_candidates(indptr, indices, weights, frontier, t, ws, row_len)
        if targets is None:
            return _EMPTY_V
        counters["relaxations"] += len(targets)
        # tReq materialized densely (the vxm output temporary)
        with timer.stage("relax:tReq"):
            tReq = np.full(len(t), INF, dtype=np.float64)
            uts, ubest = min_by_target(targets, dists, workspace=min_ws, kernel=kernel)
            tReq[uts] = ubest
        # tless = tReq < t (full-vector pass)
        with timer.stage("relax:tless"):
            tless = tReq < t
        # tBi = (lo <= tReq < hi) ∘ tless (full-vector pass)
        with timer.stage("relax:tB"):
            if bucket is not None:
                np.logical_and(tReq >= bucket * delta, tReq < (bucket + 1) * delta, out=in_bucket)
                np.logical_and(in_bucket, tless, out=in_bucket)
        # t = min(t, tReq) (full-vector pass)
        with timer.stage("relax:minmerge"):
            counters["updates"] += int(np.count_nonzero(tless))
            np.minimum(t, tReq, out=t)
        if bucket is None:
            improved_v = np.nonzero(tless)[0]
            bq.push(improved_v, t[improved_v])
            return improved_v
        # improvements that left the window wait in bucket i + 1 (see
        # the fused wave); in-window ones re-relax this phase loop
        bq.push_into(bucket + 1, np.nonzero(tless & ~in_bucket)[0])
        return np.nonzero(in_bucket)[0]

    # repro: hot
    def relax_fused(indptr, indices, weights, frontier, bucket):
        """Fused variant: candidates → per-target min → filtered scatter,
        one pass, no dense temporaries."""
        with timer.stage("relax:fused", kernel=kernel, wave=int(len(frontier))):
            targets, dists = gather_candidates(indptr, indices, weights, frontier, t, ws, row_len)
            if targets is None:
                return _EMPTY_V
            counters["relaxations"] += len(targets)
            uts, ubest = min_by_target(targets, dists, workspace=min_ws, kernel=kernel)
            improved = ubest < t[uts]
            uts = uts[improved]
            ubest = ubest[improved]
            counters["updates"] += len(uts)
            t[uts] = ubest
            if bucket is None:
                bq.push(uts, ubest)
                return uts
            # light edges (≤Δ) out of window i land at or above its floor,
            # so < hi alone decides re-entry, and the rest fall exactly
            # into bucket i + 1 (no per-entry bucket index needed)
            reenter = ubest < (bucket + 1) * delta
            bq.push_into(bucket + 1, uts[~reenter])
            return uts[reenter]

    relax = relax_fused if fuse_relax else relax_unfused

    while True:
        with timer.stage("outer:check"):
            # the lazy bucket queue hands back the next non-empty bucket
            # (and its frontier) without rescanning the distance vector
            i, frontier = bq.pop_bucket(t)
            if i is None:
                return counters
        counters["buckets"] += 1
        bspan = None
        if recorder:
            p0 = counters["phases"]
            bspan = recorder.span(
                "bucket", index=int(i), frontier=int(len(frontier))
            ).__enter__()
        # the paper's S, accumulated as the union of this bucket's phase
        # frontiers — O(settled) per bucket, not an O(n) mask reset + scan;
        # relax() returns only improved keys, so re-entry is correct
        chunks = []
        # repro: hot
        while len(frontier):
            counters["phases"] += 1
            chunks.append(frontier)
            frontier = relax(ALp, ALi, ALw, frontier, i)
        with timer.stage("filter:settled"):
            # a lone phase frontier is already unique and ascending
            settled = chunks[0] if len(chunks) == 1 else np.unique(np.concatenate(chunks))
        counters["phases"] += 1
        relax(AHp, AHi, AHw, settled, None)
        if bspan is not None:
            bspan.set(phases=counters["phases"] - p0, settled=int(len(settled)))
            bspan.__exit__(None, None, None)


def fused_delta_stepping(
    graph: Graph,
    source: int,
    delta: float = 1.0,
    fuse_relax: bool = True,
    fuse_matrix_split: bool = True,
    instrument: bool = False,
    kernel: str = "auto",
    workspace: RelaxWorkspace | None = None,
    recorder=None,
) -> SSSPResult:
    """Sequential fused delta-stepping (the Fig. 3 "Fused C impl." series).

    The K=1 call into :func:`relax_rows`.  *kernel* picks the per-target
    min kernel (``auto``/``argsort``/``scatter``, see
    :mod:`repro.kernels.minby`); *workspace* overrides the per-graph
    cached buffer arena (embedders that manage their own).  A truthy
    *recorder* (:mod:`repro.obs`) turns the :class:`StageTimer` stages
    into trace spans and adds one ``bucket`` span per non-empty bucket
    (index, frontier size, phase count) — the per-bucket timeline the
    §VI.C stage totals can't show.  Recording never changes the schedule
    or the distances.
    """
    check_delta(delta)
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    check_kernel(kernel)
    timer = StageTimer(recorder=recorder) if (instrument or recorder) else NO_TIMER
    t = np.full(n, INF, dtype=np.float64)
    t[source] = 0.0
    counters = relax_rows(
        graph, t, np.array([source], dtype=np.int64), delta,
        kernel=kernel, fuse_relax=fuse_relax, fuse_matrix_split=fuse_matrix_split,
        workspace=workspace, timer=timer, recorder=recorder,
    )
    return SSSPResult(
        distances=t,
        source=source,
        delta=delta,
        method="fused",
        buckets_processed=counters["buckets"],
        phases=counters["phases"],
        relaxations=counters["relaxations"],
        updates=counters["updates"],
        profile=timer.as_dict() if instrument else None,
    )
