"""The reusable relaxation arena: buffers that outlive a phase.

Every stepping algorithm in this repo spends its hot loop in the same
three-step wave — gather candidates out of a frontier, min-reduce them
per target, scatter the improvements — and the seed implementations paid
a fresh set of temporaries for every phase: candidate index/target/
distance arrays, a dense request vector, the ``0..total`` ramp, plus a
``np.repeat(np.arange(n), np.diff(indptr))`` row-id expansion per CSR
split.  At CI graph sizes the allocator overhead rivals the kernels
themselves; at scale it is pure waste (Dong et al. 2021 report the same
observation for their LAB-PQ batches: the buffers must persist).

:class:`RelaxWorkspace` owns those buffers once per solver (or once per
graph, via :func:`workspace_for`):

- ``req``/``touched`` — the dense per-target request vector and its
  touched mask, the state behind the O(m) scatter-min kernel
  (:func:`repro.kernels.minby.min_by_target_scatter`).  Invariant
  between waves: ``req`` is all-``inf`` and ``touched`` all-``False``,
  so no per-wave reset of the full vector is ever needed.
- wave buffers — three arrays (flat edge index, target, candidate
  distance) sized to the largest wave seen so far, grown geometrically
  and then stable: a steady-state phase allocates none of its named
  wave buffers, which :attr:`RelaxWorkspace.grows` lets tests assert.
  (NumPy's ``repeat`` still materializes the small offset-expansion
  temporaries per gather — the remaining allocator traffic until the
  gather moves below the ufunc layer.)
- ``iota`` — the shared ``0..total`` ramp the CSR gather subtracts
  offsets from.

:func:`cached_row_ids` is the companion per-graph cache for the CSR
row-id expansion (used by every light/heavy matrix split), keyed on the
graph's mutation epoch and stored under an underscore-prefixed
``graph.meta`` key so copies drop it, per the derived-cache convention
of :class:`repro.graphs.graph.Graph`.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = ["RelaxWorkspace", "workspace_for", "cached_row_ids"]

INF: float = float(np.inf)

#: ``graph.meta`` key of the per-graph workspace (underscore-prefixed:
#: a derived cache, dropped by ``Graph.copy``/``with_weights``)
_WORKSPACE_KEY = "_relax_workspace"
#: ``graph.meta`` key of the ``(epoch, row_ids)`` expansion cache
_ROW_IDS_KEY = "_row_ids"


class RelaxWorkspace:
    """Reusable buffers for the gather → min-by-target → scatter wave.

    Parameters
    ----------
    n:
        Size of the per-target key space — the vertex count for
        single-source solvers, ``K * n`` for the batched multi-source
        engine's flattened state.

    Attributes
    ----------
    req:
        Dense ``float64`` request vector (all ``inf`` between waves).
    touched:
        Dense bool mask over the key space (all ``False`` between
        waves); the scatter kernel's touched-list compaction.
    grows:
        Number of wave-buffer growths so far.  Stable after warmup —
        the workspace-reuse tests pin this at zero across steady-state
        phases.
    """

    __slots__ = ("n", "req", "touched", "grows", "_flat", "_targets", "_dists", "_iota")

    n: int
    req: NDArray[np.float64]
    touched: NDArray[np.bool_]
    grows: int
    _flat: NDArray[np.int64]
    _targets: NDArray[np.int64]
    _dists: NDArray[np.float64]
    _iota: NDArray[np.int64]

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("workspace size must be >= 0")
        self.n = int(n)
        self.req = np.full(self.n, INF, dtype=np.float64)
        self.touched = np.zeros(self.n, dtype=bool)
        self.grows = 0
        self._flat = np.empty(0, dtype=np.int64)
        self._targets = np.empty(0, dtype=np.int64)
        self._dists = np.empty(0, dtype=np.float64)
        self._iota = np.empty(0, dtype=np.int64)

    def _capacity_for(self, total: int) -> int:
        cap = max(16, len(self._flat))
        while cap < total:
            cap *= 2
        return cap

    def wave_buffers(
        self, total: int
    ) -> tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.float64]]:
        """``(flat, targets, dists)`` views of length *total*.

        The backing buffers grow geometrically and are then reused for
        every subsequent wave — repeated calls at steady state return
        views of the *same* arrays (asserted by the workspace tests).
        """
        if total > len(self._flat):
            cap = self._capacity_for(total)
            self._flat = np.empty(cap, dtype=np.int64)
            self._targets = np.empty(cap, dtype=np.int64)
            self._dists = np.empty(cap, dtype=np.float64)
            self.grows += 1
        return self._flat[:total], self._targets[:total], self._dists[:total]

    def iota(self, total: int) -> NDArray[np.int64]:
        """The shared ``0..total`` ramp (a view; grown on demand)."""
        if total > len(self._iota):
            self._iota = np.arange(self._capacity_for(total), dtype=np.int64)
        return self._iota[:total]

    def reset(self) -> None:
        """Restore the between-waves invariant after an aborted wave."""
        self.req.fill(INF)
        self.touched.fill(False)

    def check(self) -> None:
        """Assert the between-waves steady state; the debug invariant.

        ``req`` must be all-``inf`` and ``touched`` all-``False`` — the
        contract every kernel restores before returning (including on
        aborted waves, via ``try/finally``).  A leak here does not break
        *this* wave; it silently corrupts the **next** one that reuses
        the arena, which is why the kernels property tests and the shard
        race harness call this after every wave.  Raises
        ``AssertionError`` naming the leaked keys.
        """
        leaked = np.flatnonzero(self.req != INF)
        if len(leaked):
            raise AssertionError(
                f"workspace invariant broken: req not all-inf at keys "
                f"{leaked[:8].tolist()} ({len(leaked)} total)"
            )
        stuck = np.flatnonzero(self.touched)
        if len(stuck):
            raise AssertionError(
                f"workspace invariant broken: touched not all-False at keys "
                f"{stuck[:8].tolist()} ({len(stuck)} total)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RelaxWorkspace<n={self.n}, wave_cap={len(self._flat)}, grows={self.grows}>"


def workspace_for(graph: Any) -> RelaxWorkspace:
    """The per-graph cached :class:`RelaxWorkspace`.

    Memoized under ``graph.meta['_relax_workspace']`` so repeated solves
    (service traffic, tuner probes, repair waves) share one arena.  The
    workspace carries no graph-derived state — only size — so it
    survives mutations (the vertex set is fixed); copies drop it with
    the other underscore-prefixed derived caches.

    Not safe to share across threads: concurrent solvers must own
    private workspaces (the sharded stepper allocates one per shard).
    """
    ws: RelaxWorkspace | None = graph.meta.get(_WORKSPACE_KEY)
    if ws is None or ws.n != graph.num_vertices:
        ws = RelaxWorkspace(graph.num_vertices)
        graph.meta[_WORKSPACE_KEY] = ws
    return ws


def cached_row_ids(graph: Any) -> NDArray[np.int64]:
    """The CSR row-id expansion ``repeat(arange(n), diff(indptr))``, cached.

    Every light/heavy matrix split (and any other edge-parallel pass
    that needs each stored edge's source) used to recompute this O(m)
    expansion per call; it only changes when the sparsity pattern does,
    so it is cached per ``(graph, epoch)`` in ``graph.meta`` and
    recomputed after mutations.  The result is shared by every caller,
    so it is read-only (an in-place write raises ``ValueError``).
    """
    entry: tuple[int, NDArray[np.int64]] | None = graph.meta.get(_ROW_IDS_KEY)
    if entry is not None:
        epoch, ids = entry
        if epoch == graph.epoch and len(ids) == graph.num_edges:
            return ids
    fresh: NDArray[np.int64] = graph.row_sources()
    fresh.flags.writeable = False
    graph.meta[_ROW_IDS_KEY] = (graph.epoch, fresh)
    return fresh
