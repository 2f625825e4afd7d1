"""The graph mutation API: edge inserts, deletes, and reweights in batches.

:func:`apply_edge_updates` is the only sanctioned way to change a
:class:`~repro.graphs.graph.Graph` after construction.  It rewrites the
CSR *consistently* — rows stay sorted by target, duplicate targets stay
min-combined — and bumps :attr:`Graph.epoch`, the monotone counter that
epoch-keyed caches (:class:`repro.service.cache.DistanceCache`) and the
landmark staleness policy hang off.  Pure reweight batches take an
in-place fast path (the row structure is untouched, only ``weights``
entries are overwritten); anything that changes the sparsity pattern
rebuilds the three CSR arrays in one vectorized merge.

The returned :class:`AppliedUpdates` records the batch in *stored-edge*
granularity (undirected updates appear once per orientation) together
with the old weights, which is exactly what the incremental repair
kernel (:mod:`repro.dynamic.incremental`) needs to classify the batch
into improving (insert/decrease) and worsening (delete/increase) parts.

The vertex set is fixed: endpoints must lie in ``[0, n)``.  Growing the
graph is a different (re-allocation) operation, out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph, build_canonical_csr

__all__ = ["AppliedUpdates", "InvalidWeightError", "apply_edge_updates"]

_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_W = np.empty(0, dtype=np.float64)


class InvalidWeightError(ValueError):
    """An insert or reweight carries a NaN, infinite, or negative weight.

    Raised before the graph (or its epoch) changes.  ``NaN < 0`` is
    False, so a sign check alone would let NaN through, and a NaN edge
    compares false against every distance: repair would keep the cached
    answer while a recompute disagrees.
    """


@dataclass(frozen=True)
class AppliedUpdates:
    """One applied mutation batch, recorded per stored (directed) edge.

    Attributes
    ----------
    inserted:
        ``(src, dst, w_new)`` arrays of edges added to the CSR.
    deleted:
        ``(src, dst, w_old)`` arrays of edges removed.
    increased:
        ``(src, dst, w_old, w_new)`` arrays of reweights with
        ``w_new > w_old``.
    decreased:
        ``(src, dst, w_old, w_new)`` arrays of reweights with
        ``w_new < w_old`` (no-change reweights are dropped).
    epoch:
        The graph's epoch *after* this batch applied.
    """

    inserted: tuple[np.ndarray, np.ndarray, np.ndarray]
    deleted: tuple[np.ndarray, np.ndarray, np.ndarray]
    increased: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    decreased: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    epoch: int

    @property
    def num_updates(self) -> int:
        """Stored-edge update count (undirected edges count twice)."""
        return (
            len(self.inserted[0])
            + len(self.deleted[0])
            + len(self.increased[0])
            + len(self.decreased[0])
        )

    @property
    def decrease_only(self) -> bool:
        """True when no update can lengthen any shortest path.

        Decrease-only batches admit the cheap repair mode: cached
        distances stay valid upper bounds, so repair seeds buckets from
        the affected heads only, with no invalidation phase.
        """
        return len(self.deleted[0]) == 0 and len(self.increased[0]) == 0

    def improving_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inserted + decreased edges as ``(src, dst, w_new)``."""
        return (
            np.concatenate([self.inserted[0], self.decreased[0]]),
            np.concatenate([self.inserted[1], self.decreased[1]]),
            np.concatenate([self.inserted[2], self.decreased[3]]),
        )

    def worsening_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deleted + increased edges as ``(src, dst, w_old)``."""
        return (
            np.concatenate([self.deleted[0], self.increased[0]]),
            np.concatenate([self.deleted[1], self.increased[1]]),
            np.concatenate([self.deleted[2], self.increased[2]]),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AppliedUpdates<+{len(self.inserted[0])} -{len(self.deleted[0])} "
            f"↑{len(self.increased[0])} ↓{len(self.decreased[0])}, "
            f"epoch={self.epoch}>"
        )


def _as_edge_arrays(spec, n: int, kind: str, with_weights: bool):
    """Normalize an update spec into ``(src, dst[, w])`` int64/float64 arrays.

    Accepts a tuple/list of parallel arrays or an iterable of per-edge
    tuples; validates endpoint range and (for weighted specs) that every
    weight is finite and non-negative (:class:`InvalidWeightError`).
    """
    width = 3 if with_weights else 2
    empty = (_EMPTY_IDX, _EMPTY_IDX, _EMPTY_W) if with_weights else (_EMPTY_IDX, _EMPTY_IDX)
    if spec is None:
        return empty
    if isinstance(spec, tuple):
        # tuple of parallel arrays: (src, dst[, w])
        if len(spec) != width:
            raise ValueError(f"{kind} expects {width} parallel arrays, got {len(spec)}")
        src = np.asarray(spec[0], dtype=np.int64).reshape(-1)
        dst = np.asarray(spec[1], dtype=np.int64).reshape(-1)
        w = np.asarray(spec[2], dtype=np.float64).reshape(-1) if with_weights else None
        if len(src) != len(dst) or (w is not None and len(w) != len(src)):
            raise ValueError(f"{kind} arrays must have equal length")
    else:
        arr = np.asarray(list(spec), dtype=np.float64)
        if arr.size == 0:
            return empty
        arr = np.atleast_2d(arr)
        if arr.shape[1] != width:
            raise ValueError(f"{kind} entries must be {width}-tuples, got shape {arr.shape}")
        src = arr[:, 0].astype(np.int64)
        dst = arr[:, 1].astype(np.int64)
        w = arr[:, 2].astype(np.float64) if with_weights else None
    if len(src) and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
        raise ValueError(f"{kind} endpoint out of range [0, {n})")
    if np.any(src == dst):
        raise ValueError(f"{kind} contains a self-loop (graphs are simple)")
    if w is not None:
        bad = ~(np.isfinite(w) & (w >= 0))
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            raise InvalidWeightError(
                f"{kind} weight {float(w[k])} on {int(src[k])} -> {int(dst[k])} "
                "is not a finite non-negative number"
            )
        return src, dst, w
    return src, dst


def _symmetrize(src, dst, *parallel):
    """Duplicate each update with swapped endpoints (undirected storage)."""
    out = [np.concatenate([src, dst]), np.concatenate([dst, src])]
    for p in parallel:
        out.append(np.concatenate([p, p]))
    return tuple(out)


def apply_edge_updates(
    graph: Graph,
    inserts=None,
    deletes=None,
    reweights=None,
    strict: bool = True,
) -> AppliedUpdates:
    """Apply one batch of edge updates to *graph*, in place.

    Parameters
    ----------
    graph:
        The graph to mutate.  Its CSR arrays are replaced (or, for pure
        reweights, overwritten in place) and :attr:`Graph.epoch` is
        bumped by one.
    inserts:
        New edges as ``(src, dst, w)`` — parallel arrays or an iterable
        of triples.  Inserting an existing edge is an error under
        ``strict``; otherwise it min-combines with the stored weight
        (recorded as a decrease when it wins, dropped when it loses).
    deletes:
        Edges to remove as ``(src, dst)``.  Missing edges are an error
        under ``strict``, silently skipped otherwise.
    reweights:
        ``(src, dst, w_new)`` weight overwrites for existing edges.
        Missing edges are an error under ``strict``, skipped otherwise.
    strict:
        Raise on inconsistent requests (default) instead of coercing.

    For undirected graphs every update is applied to both stored
    orientations automatically, so callers describe each undirected edge
    once (either orientation).

    Returns the :class:`AppliedUpdates` record consumed by
    :func:`repro.dynamic.incremental.repair_sssp`.

    Notes
    -----
    An edge may appear in at most one category per batch; the same edge
    in two categories (e.g. deleted and reweighted) raises ``ValueError``
    regardless of ``strict`` — the composite semantics would be
    order-dependent.
    """
    n = graph.num_vertices
    ins_s, ins_d, ins_w = _as_edge_arrays(inserts, n, "inserts", with_weights=True)
    del_s, del_d = _as_edge_arrays(deletes, n, "deletes", with_weights=False)
    rw_s, rw_d, rw_w = _as_edge_arrays(reweights, n, "reweights", with_weights=True)

    if not graph.directed:
        ins_s, ins_d, ins_w = _symmetrize(ins_s, ins_d, ins_w)
        del_s, del_d = _symmetrize(del_s, del_d)
        rw_s, rw_d, rw_w = _symmetrize(rw_s, rw_d, rw_w)

    graph.canonicalize_rows()  # binary-searchable edge keys
    src_all = graph.row_sources()
    edge_keys = src_all * np.int64(n) + graph.indices  # ascending (canonical CSR)

    def locate(s, d, kind):
        """Positions of requested edges in the CSR; -1 where absent."""
        keys = s * np.int64(n) + d
        if len(np.unique(keys)) != len(keys):
            raise ValueError(f"duplicate edge in {kind} batch")
        if len(edge_keys) == 0:  # empty graph: nothing to find
            return np.full(len(keys), -1, dtype=np.int64)
        pos = np.searchsorted(edge_keys, keys)
        in_range = pos < len(edge_keys)
        found = in_range & (edge_keys[np.minimum(pos, len(edge_keys) - 1)] == keys)
        return np.where(found, pos, -1)

    ins_pos = locate(ins_s, ins_d, "inserts")
    del_pos = locate(del_s, del_d, "deletes")
    rw_pos = locate(rw_s, rw_d, "reweights")

    # cross-category conflicts are order-dependent nonsense: reject always
    ins_keys = ins_s * np.int64(n) + ins_d
    del_keys = del_s * np.int64(n) + del_d
    rw_keys = rw_s * np.int64(n) + rw_d
    for a, b, what in (
        (ins_keys, del_keys, "inserted and deleted"),
        (ins_keys, rw_keys, "inserted and reweighted"),
        (del_keys, rw_keys, "deleted and reweighted"),
    ):
        if len(a) and len(b) and len(np.intersect1d(a, b)):
            raise ValueError(f"the same edge is {what} in one batch")

    if strict:
        if np.any(ins_pos >= 0):
            k = int(np.nonzero(ins_pos >= 0)[0][0])
            raise ValueError(
                f"insert of existing edge {ins_s[k]} -> {ins_d[k]} (use reweights)"
            )
        if np.any(del_pos < 0):
            k = int(np.nonzero(del_pos < 0)[0][0])
            raise ValueError(f"delete of missing edge {del_s[k]} -> {del_d[k]}")
        if np.any(rw_pos < 0):
            k = int(np.nonzero(rw_pos < 0)[0][0])
            raise ValueError(f"reweight of missing edge {rw_s[k]} -> {rw_d[k]}")
    else:
        # coerce: existing "inserts" become reweight candidates via
        # min-combine; missing deletes/reweights are dropped
        exist = ins_pos >= 0
        if exist.any():
            keep_new = ins_w[exist] < graph.weights[ins_pos[exist]]
            rw_s = np.concatenate([rw_s, ins_s[exist][keep_new]])
            rw_d = np.concatenate([rw_d, ins_d[exist][keep_new]])
            rw_w = np.concatenate([rw_w, ins_w[exist][keep_new]])
            rw_pos = np.concatenate([rw_pos, ins_pos[exist][keep_new]])
            ins_s, ins_d, ins_w = ins_s[~exist], ins_d[~exist], ins_w[~exist]
        miss = del_pos < 0
        del_s, del_d, del_pos = del_s[~miss], del_d[~miss], del_pos[~miss]
        miss = rw_pos < 0
        rw_s, rw_d, rw_w, rw_pos = rw_s[~miss], rw_d[~miss], rw_w[~miss], rw_pos[~miss]

    # classify reweights against the stored weights
    w_old_rw = graph.weights[rw_pos] if len(rw_pos) else _EMPTY_W
    up = rw_w > w_old_rw
    down = rw_w < w_old_rw
    increased = (rw_s[up], rw_d[up], w_old_rw[up], rw_w[up])
    decreased = (rw_s[down], rw_d[down], w_old_rw[down], rw_w[down])
    deleted = (del_s, del_d, graph.weights[del_pos] if len(del_pos) else _EMPTY_W)
    inserted = (ins_s, ins_d, ins_w)

    if len(ins_s) == 0 and len(del_s) == 0:
        # pure-reweight fast path: sparsity pattern untouched, overwrite
        # the weight entries in place
        if len(rw_pos):
            graph.weights[rw_pos] = rw_w
    else:
        keep = np.ones(graph.num_edges, dtype=bool)
        keep[del_pos] = False
        new_w = graph.weights.copy()
        if len(rw_pos):
            new_w[rw_pos] = rw_w
        # one merge pass back to canonical CSR (kept edges are already
        # key-sorted; the argsort is dominated by the insert tail, and the
        # keys are unique by construction — no dedupe scan needed)
        graph.indptr, graph.indices, graph.weights = build_canonical_csr(
            np.concatenate([src_all[keep], ins_s]),
            np.concatenate([graph.indices[keep], ins_d]),
            np.concatenate([new_w[keep], ins_w]),
            n,
            dedupe=False,
        )

    graph.epoch += 1
    return AppliedUpdates(
        inserted=inserted,
        deleted=deleted,
        increased=increased,
        decreased=decreased,
        epoch=graph.epoch,
    )
