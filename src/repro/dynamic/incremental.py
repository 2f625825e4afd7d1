"""Incremental SSSP repair: delta-stepping waves seeded from an update batch.

Given distance vectors solved against the *pre-mutation* graph and the
:class:`~repro.dynamic.mutations.AppliedUpdates` record of one batch,
:func:`repair_many` produces the distance vectors of the *post-mutation*
graph — each bit-identical to a full
:func:`repro.sssp.fused.fused_delta_stepping` recompute — while touching
only the region the updates actually reach.  :func:`repair_sssp` is the
one-vector call into the same loop.  The repair waves are the same
light/heavy bucket machinery as the fused solver (the stepping-algorithm
view of Dong et al. 2021); what changes is the seeding, following the
dynamic-SSSP decomposition of SSSP-Del (Javanrood & Ripeanu):

- **decrease-only batches** (inserts, weight decreases): the cached
  distances remain valid upper bounds, so the repair scatter-mins
  ``d[u] ⊕ w_new`` through the improving edges and seeds buckets with
  only the heads that actually improved;
- **general batches** (deletes, weight increases): distances downstream
  of a lost shortest path are stale-low and must be *invalidated* first.
  The affected set is found on the predecessor structure — the tight-edge
  DAG ``{(u, v) : d[v] == d[u] ⊕ w(u, v)}``, i.e. every vertex's full set
  of shortest-path predecessors, not one spanning tree — by support
  counting: a vertex is affected once every tight in-edge it had comes
  from an affected vertex (Kahn's algorithm over the DAG; exact for
  positive weights).  Zero-weight edges can close tight *cycles*, where
  support counting under-marks, so their presence switches to the
  conservative closure (affected if *any* tight predecessor is affected)
  — a superset, so repair stays exact, just larger.  Affected distances
  are reset to ``inf`` and re-seeded from the one vectorized pass that
  gathers every edge crossing from the intact region into the hole.

**K rows, one wave loop.**  The K vectors of a call are the rows of
one flat ``k·n + v`` state: each row is invalidated and seeded on its
own, then all rows relax together in the shared wave loop
:func:`repro.sssp.fused.relax_rows` (see :mod:`repro.sssp.fused`).
The ``to_edges()`` export, the zero-weight test and the light/heavy
split are computed once per call, not once per row.

The K·n state is K distance vectors plus, for K > 1, a K·n scatter
workspace for the per-target min, which is why the service repairs
its cache in groups (:data:`repro.service.server.REPAIR_GROUP_ROWS`)
rather than in one call: a single 128-row state on a 10k-vertex road
mesh measured +11% peak RSS, while 16-row groups keep most of the saving
in waves.

Bit-identity with the full recompute is not a coincidence: both
algorithms run min-plus relaxation with the same float additions to
quiescence, and the quiescent point — ``d[v] ≤ d[u] ⊕ w`` on every edge,
every value witnessed by a path — is unique because IEEE addition is
monotone.  Processing order cannot change the answer, only the work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..graphs.graph import Graph
from ..sssp.delta import check_delta, choose_delta
from ..sssp.fused import relax_rows
from ..sssp.result import INF
from .mutations import AppliedUpdates

# gather_candidates, min_by_target and split_csr_light_heavy stay bound
# here: perfbench's traced run wraps them by these names in this module
from ..kernels import gather_candidates, min_by_target  # noqa: F401
from ..sssp.fused import split_csr_light_heavy  # noqa: F401

__all__ = ["RepairResult", "repair_many", "repair_sssp", "affected_vertices"]

#: shared empty key array — the seeding's no-seed result
_EMPTY_V = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class RepairResult:
    """The repaired distances plus the work the repair actually did.

    ``mode`` is ``"noop"`` (empty batch), ``"decrease-only"`` (no
    invalidation phase), or ``"general"``.  ``affected`` counts vertices
    invalidated through the predecessor structure; ``seeds`` counts the
    vertices whose tentative distance the seeding phase touched —
    together they bound the repaired region.  Bucket/phase/relaxation
    counters mirror :class:`repro.sssp.result.SSSPResult`; rows repaired
    by one :func:`repair_many` call share their waves, so there these
    four counters are the call's totals, the same on every row.
    """

    distances: np.ndarray
    source: int
    delta: float
    mode: str
    affected: int = 0
    seeds: int = 0
    buckets: int = 0
    phases: int = 0
    relaxations: int = 0
    updates: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RepairResult<{self.mode}: affected={self.affected}, "
            f"seeds={self.seeds}, buckets={self.buckets}, phases={self.phases}>"
        )


def _expand_targets(indptr: np.ndarray, targets: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """All entries of *targets* in the rows of *frontier* (CSR expansion)."""
    starts = indptr[frontier]
    lengths = indptr[frontier + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, lengths)
    return targets[flat]


def affected_vertices(
    graph: Graph,
    distances: np.ndarray,
    changed: tuple[np.ndarray, np.ndarray, np.ndarray],
    source: int,
    edges: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    zero_weights: bool | None = None,
) -> np.ndarray:
    """Boolean mask of vertices whose cached distance lost its support.

    *changed* is ``(src, dst, w_old)`` of every stored edge that no
    longer exists at its old weight — deleted, increased, **and
    decreased** edges alike.  A decreased edge cannot worsen its head by
    itself, but in a mixed batch its head's old support evaporates just
    the same (the edge is no longer tight at ``w_old``), and if the tail
    is worsened the head must re-derive its distance — omitting
    decreases here is exactly the under-marking that lets stale-low
    distances survive.  *graph* is the post-mutation graph; *distances*
    the pre-mutation solution.  Support counting over the tight-edge DAG
    of the new graph (see module docstring); falls back to the
    conservative closure when zero-weight edges could close tight
    cycles.  The source is never affected.  *edges* (an
    already-materialized ``to_edges()`` triple) and *zero_weights*
    (whether the graph stores any zero weight) let a caller repairing
    many vectors pay those O(E) passes once.
    """
    n = graph.num_vertices
    d = distances
    w_src, w_dst, w_old = changed
    aff = np.zeros(n, dtype=bool)
    if len(w_src) == 0:
        return aff
    # roots: heads of worsened edges that were tight (supporting) at the
    # old weight — float equality is exact because the old solve computed
    # d[dst] as d[src] ⊕ w_old along supporting edges
    finite = np.isfinite(d[w_src])
    root_mask = finite & (d[w_dst] == d[w_src] + w_old)
    roots = np.unique(w_dst[root_mask])
    roots = roots[roots != source]
    if len(roots) == 0:
        return aff

    # the tight-edge DAG of the post-mutation graph (one O(E) pass); edges
    # come in CSR order, so the tight positions split at the graph's row
    # pointers and the DAG is itself CSR-addressable
    srcs, dsts, w = edges if edges is not None else graph.to_edges()
    via = d[srcs]
    via += w
    tight = d[dsts] == via
    tight &= np.isfinite(via)
    pos = np.flatnonzero(tight)
    tdst = dsts[pos]
    t_indptr = np.searchsorted(pos, graph.indptr)

    if zero_weights is None:
        zero_weights = bool((graph.weights == 0).any())
    if not zero_weights:
        # Kahn over the tight DAG: a root with surviving support is NOT
        # affected; a vertex is affected once its support count hits zero
        support = np.bincount(tdst, minlength=n)
        frontier = roots[support[roots] == 0]
        aff[frontier] = True
        while len(frontier):
            hit = _expand_targets(t_indptr, tdst, frontier)
            if len(hit) == 0:
                break
            newly, lost = np.unique(hit, return_counts=True)
            support[newly] -= lost
            newly = newly[(support[newly] == 0) & ~aff[newly] & (newly != source)]
            aff[newly] = True
            frontier = newly
    else:
        # zero-weight tight cycles defeat support counting: take the
        # closure instead (over-marking is exact, only more work)
        aff[roots] = True
        frontier = roots
        while len(frontier):
            hit = _expand_targets(t_indptr, tdst, frontier)
            newly = np.unique(hit)
            newly = newly[~aff[newly] & (newly != source)]
            aff[newly] = True
            frontier = newly
        aff[source] = False
    return aff


class _Batch(NamedTuple):
    """What seeding needs from one update batch, derived once per call."""

    mode: str
    #: ``(src, dst, w_old)`` of every edge that lost its old weight
    #: (general mode only)
    changed: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    #: inserted + decreased edges as ``(src, dst, w_new)``
    improving: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: the post-mutation ``to_edges()`` triple (general mode only)
    edges: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    zero_weights: bool


def _prepare(graph: Graph, updates: AppliedUpdates) -> _Batch:
    improving = updates.improving_edges()
    worsened = updates.worsening_edges()
    if len(worsened[0]) == 0:
        mode = "decrease-only" if len(improving[0]) else "noop"
        return _Batch(mode, None, improving, None, False)
    # support loss is keyed on *old-weight* tightness, which decreased
    # edges forfeit too — fold them into the root candidates
    dec_s, dec_d, dec_wold, _ = updates.decreased
    changed = (
        np.concatenate([worsened[0], dec_s]),
        np.concatenate([worsened[1], dec_d]),
        np.concatenate([worsened[2], dec_wold]),
    )
    return _Batch(
        "general", changed, improving, graph.to_edges(),
        bool((graph.weights == 0).any()),
    )


def _seed_row(graph: Graph, source: int, d: np.ndarray, batch: _Batch) -> tuple[int, np.ndarray]:
    """Invalidate and seed one distance row in place.

    Returns ``(affected count, seed vertices)``: the seeds are every
    vertex whose tentative distance the boundary or improvement seeding
    lowered, ascending and unique.
    """
    heads = []
    affected = 0
    # -- invalidation phase (deletes / increases) ---------------------------
    if batch.mode == "general":
        aff = affected_vertices(
            graph, d, batch.changed, source,
            edges=batch.edges, zero_weights=batch.zero_weights,
        )
        affected = int(aff.sum())
        if affected:
            d[aff] = INF
            # boundary seeding: every edge from the intact region into the
            # hole, in one vectorized pass
            srcs, dsts, w = batch.edges
            into = np.flatnonzero(aff[dsts])
            into = into[~aff[srcs[into]] & np.isfinite(d[srcs[into]])]
            if len(into):
                np.minimum.at(d, dsts[into], d[srcs[into]] + w[into])
                heads.append(dsts[into])
    # -- improvement seeding (inserts / decreases) --------------------------
    imp_src, imp_dst, imp_w = batch.improving
    if len(imp_src):
        ok = np.isfinite(d[imp_src])
        s, t, w = imp_src[ok], imp_dst[ok], imp_w[ok]
        cand = d[s] + w
        better = cand < d[t]
        if better.any():
            np.minimum.at(d, t[better], cand[better])
            heads.append(t[better])
    if not heads:
        return affected, _EMPTY_V
    return affected, np.unique(np.concatenate(heads))


def _resolve(graph: Graph, d: np.ndarray, seeds: np.ndarray, stepper: str, recorder) -> dict[str, int]:
    """Relax one seeded row on a registered stepper's ``resolve`` path."""
    from ..stepping import resolve_stepper_spec

    s, params = resolve_stepper_spec(stepper)
    if not s.supports_resolve:
        raise ValueError(
            f"stepper {stepper!r} cannot run seeded repair (no resolve support)"
        )
    if recorder:
        params = {**params, "recorder": recorder}
    dirty = np.zeros(len(d), dtype=bool)
    dirty[seeds] = True
    c = s.resolve(graph, d, dirty, **params)
    return {
        "buckets": c["steps"], "phases": c["phases"],
        "relaxations": c["relaxations"], "updates": c["updates"],
    }


def _repair_rows(graph, sources, distances, updates, delta, stepper, recorder) -> list[RepairResult]:
    """Seed every row, relax them together, and package one result per row."""
    n = graph.num_vertices
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    bad = src[(src < 0) | (src >= n)]
    if len(bad):
        raise IndexError(f"source {int(bad[0])} out of range [0, {n})")
    if len(distances) != len(src):
        raise ValueError(f"{len(src)} sources but {len(distances)} distance vectors")
    k_rows = len(src)
    t = np.empty(k_rows * n, dtype=np.float64)  # private writable copies
    rows = t.reshape(k_rows, n)
    for k, dist in enumerate(distances):
        dist = np.asarray(dist, dtype=np.float64)
        if dist.shape != (n,):
            raise ValueError(f"expected a length-{n} distance vector, got shape {dist.shape}")
        rows[k] = dist
    if delta is None:
        delta = choose_delta(graph)
    check_delta(delta)

    batch = _prepare(graph, updates)
    seeded = [_seed_row(graph, int(src[k]), rows[k], batch) for k in range(k_rows)]
    keys = np.concatenate([_EMPTY_V, *(seeds + k * n for k, (_, seeds) in enumerate(seeded))])
    counters = {"buckets": 0, "phases": 0, "relaxations": 0, "updates": 0}
    if len(keys) and stepper in (None, "delta"):
        counters = relax_rows(graph, t, keys, delta)
    elif len(keys):
        counters = _resolve(graph, t, keys, stepper, recorder)
    return [
        RepairResult(
            distances=rows[k], source=int(src[k]), delta=float(delta),
            mode=batch.mode, affected=affected, seeds=len(seeds), **counters,
        )
        for k, (affected, seeds) in enumerate(seeded)
    ]


def _repair(graph, sources, distances, updates, delta, stepper=None, recorder=None) -> list[RepairResult]:
    """:func:`_repair_rows` under one ``repair`` span when recording."""
    if not recorder:
        return _repair_rows(graph, sources, distances, updates, delta, stepper, None)
    t0 = time.perf_counter()
    # first touch fixes the buckets: repairs are ms-scale, so pin the
    # sub-ms "latency-ms" preset before the first observe
    recorder.metrics.histogram("repair.ms", buckets="latency-ms")
    with recorder.span("repair", rows=len(sources)) as sp:
        results = _repair_rows(graph, sources, distances, updates, delta, stepper, recorder)
        if results:
            sp.set(
                mode=results[0].mode,
                affected=sum(r.affected for r in results),
                seeds=sum(r.seeds for r in results),
                phases=results[0].phases,
            )
    # rows share every wave, so each gets an equal share of the wall time
    row_ms = (time.perf_counter() - t0) * 1e3 / max(len(results), 1)
    for _ in results:
        recorder.observe("repair.ms", row_ms)
        recorder.inc("repair.runs")
    return results


def repair_many(
    graph: Graph,
    sources,
    distances,
    updates: AppliedUpdates,
    delta: float | None = None,
    recorder=None,
) -> list[RepairResult]:
    """Repair K cached distance vectors after one batch, in shared waves.

    Parameters
    ----------
    graph:
        The **post-mutation** graph (as left by
        :func:`repro.dynamic.apply_edge_updates`).
    sources:
        The K solves' source vertices (duplicates allowed).
    distances:
        The K distance vectors solved against the pre-mutation graph, in
        *sources* order (a K×n array or a sequence of length-n vectors;
        not modified, cached read-only arrays are accepted).
    updates:
        The :class:`AppliedUpdates` record of the batch.
    delta:
        Bucket width for the repair waves (``None``: auto-chosen on the
        new graph).  Any positive Δ yields the same distances.
    recorder:
        A truthy :class:`repro.obs.Recorder` wraps the call in one
        ``repair`` span (rows, mode, affected, seeds, phases as args)
        and observes one ``repair.ms`` sample and one ``repair.runs``
        count per row, each row taking an equal share of the wall time.
        Recording never changes the repaired distances.

    The call's state is K·n floats; callers with many vectors bound
    memory by calling once per group (the service uses
    :data:`repro.service.server.REPAIR_GROUP_ROWS`).  Returns one
    :class:`RepairResult` per row, in order; row k's ``distances`` are
    bit-identical to
    ``fused_delta_stepping(graph, sources[k], delta).distances``.
    """
    return _repair(graph, sources, distances, updates, delta, recorder=recorder)


def repair_sssp(
    graph: Graph,
    source: int,
    distances: np.ndarray,
    updates: AppliedUpdates,
    delta: float | None = None,
    validate: bool = False,
    stepper: str | None = None,
    recorder=None,
) -> RepairResult:
    """Repair one cached distance vector after one applied update batch.

    The K=1 case of :func:`repair_many`; the parameters are the same,
    for one *source* and its *distances*, plus:

    validate:
        Also run the full recompute and raise ``RuntimeError`` on any
        mismatch (for tests and paranoid callers).
    stepper:
        Run the repair waves on a :data:`repro.stepping.STEPPERS`
        algorithm instead of the built-in Δ-bucket loop — any member
        whose ``supports_resolve`` is true (``"rho"``, ``"radius"``,
        ``"delta-star"``, ``"sharded"``; specs with params like
        ``"sharded(shards=4)"`` are accepted).  The seeded state is
        identical either way; only the re-relaxation schedule changes,
        so the repaired distances do not.  ``None`` (and ``"delta"``)
        keep the built-in loop.  A *recorder* is forwarded into the
        stepper's resolve path.

    Returns a :class:`RepairResult` whose ``distances`` are bit-identical
    to ``fused_delta_stepping(graph, source, delta).distances``.
    """
    (result,) = _repair(graph, [source], [distances], updates, delta, stepper, recorder)
    if validate:
        from ..sssp.fused import fused_delta_stepping

        oracle = fused_delta_stepping(graph, source, result.delta).distances
        d = result.distances
        if not np.array_equal(d, oracle):
            bad = int(np.nonzero(d != oracle)[0][0])
            raise RuntimeError(
                f"incremental repair diverged from recompute at vertex {bad}: "
                f"{d[bad]} != {oracle[bad]}"
            )
    return result
