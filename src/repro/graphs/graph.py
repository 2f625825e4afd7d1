"""The :class:`Graph` container: a weighted digraph in CSR form.

This is the boundary object between the dataset side (generators, file
loaders) and the algorithm side (SSSP implementations, GraphBLAS adjacency
matrices).  Internally it is exactly the CSR adjacency structure the paper
operates on — ``A[i, j] = w`` for an edge ``i → j`` of weight ``w`` — plus
cheap conversions:

- :meth:`Graph.to_matrix` → :class:`repro.graphblas.Matrix` (zero-copy);
- :meth:`Graph.csr` → raw ``(indptr, indices, weights)`` NumPy arrays for
  the fused/direct implementations;
- :meth:`Graph.from_edges` / :meth:`Graph.to_edges` ↔ COO edge lists.

Graphs are simple (no self-loops, duplicate edges combined by minimum
weight, matching shortest-path semantics) and may be directed or
undirected (undirected edges are stored symmetrically, as SNAP's
undirected datasets are).

The *canonical* CSR form — every row sorted by target, no duplicate
targets — is what :meth:`Graph.from_edges` produces and what binary-search
lookups (:meth:`Graph.edge_weight`, the mutation API in
:mod:`repro.dynamic`) rely on.  Adopted structures
(:meth:`Graph.from_matrix`) are canonicalized on construction.

Mutation goes through :func:`repro.dynamic.apply_edge_updates`, which
keeps the CSR canonical and bumps :attr:`Graph.epoch` — the monotone
counter that caches (:class:`repro.service.cache.DistanceCache`) key on,
so a topology change invalidates every derived answer without manual
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphblas.matrix import Matrix
from ..graphblas.sparseutil import INDEX_DTYPE

__all__ = ["Graph", "build_canonical_csr"]


def build_canonical_csr(src, dst, w, n: int, dedupe: bool = True):
    """COO triples → canonical CSR ``(indptr, indices, weights)``.

    Sorts by ``(src, dst)`` key and — with ``dedupe`` — min-combines
    duplicate edges, the container's semantics.  The one implementation
    behind :meth:`Graph.from_edges`, :meth:`Graph.canonicalize_rows`, and
    the mutation API's merge path.  ``dedupe=False`` skips the duplicate
    scan for inputs known unique (still sorts).
    """
    keys = np.asarray(src, dtype=np.int64) * np.int64(n) + dst
    w = np.asarray(w, dtype=np.float64)
    order = np.argsort(keys, kind="stable")
    keys, w = keys[order], w[order]
    if dedupe and len(keys):
        boundaries = np.empty(len(keys), dtype=bool)
        boundaries[0] = True
        np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
        starts = np.nonzero(boundaries)[0]
        if len(starts) != len(keys):
            w = np.minimum.reduceat(w, starts)
            keys = keys[starts]
    counts = np.bincount((keys // n).astype(INDEX_DTYPE), minlength=n).astype(INDEX_DTYPE)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(INDEX_DTYPE)
    return indptr, (keys % n).astype(INDEX_DTYPE), np.ascontiguousarray(w)


@dataclass
class Graph:
    """A weighted directed graph stored in CSR.

    Attributes
    ----------
    indptr, indices, weights:
        CSR arrays: the out-edges of vertex ``v`` are
        ``indices[indptr[v]:indptr[v+1]]`` with parallel ``weights``.
    name:
        Human-readable dataset name (used by the benchmark reports).
    meta:
        Free-form metadata (dataset family, provenance).  Keys starting
        with ``_`` are derived caches owned by other layers (e.g. the
        shard layer's partition views) and are dropped by :meth:`copy`
        and :meth:`with_weights` — they describe *this* object, not the
        graph's identity.
    directed:
        Whether the graph was built from directed edges.  Undirected
        graphs are stored with both orientations present.
    epoch:
        Mutation counter.  Starts at 0 and increases monotonically with
        every :func:`repro.dynamic.apply_edge_updates` batch; caches key
        derived answers on ``(id(graph), epoch)`` so stale entries miss
        automatically after a mutation.  A raw in-place write to the CSR
        arrays does not move it: after one, bump ``epoch`` (or call
        :meth:`repro.service.QueryService.invalidate`), or the epoch-keyed
        caches — cached distances, the light/heavy split, row ids —
        keep describing the old graph.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    name: str = "graph"
    directed: bool = True
    meta: dict = field(default_factory=dict)
    epoch: int = 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        sources,
        targets,
        weights=None,
        n: int | None = None,
        name: str = "graph",
        directed: bool = True,
        remove_self_loops: bool = True,
    ) -> "Graph":
        """Build from parallel edge arrays.

        Duplicate edges keep the minimum weight; self-loops are dropped by
        default (the paper assumes simple graphs with an empty diagonal).
        Undirected input is symmetrized.
        """
        src = np.asarray(sources, dtype=INDEX_DTYPE).reshape(-1)
        dst = np.asarray(targets, dtype=INDEX_DTYPE).reshape(-1)
        if len(src) != len(dst):
            raise ValueError("sources and targets must have equal length")
        if weights is None:
            w = np.ones(len(src), dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64).reshape(-1)
            if len(w) != len(src):
                raise ValueError("weights length mismatch")
        if n is None:
            n = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
        if len(src) and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
            raise ValueError(f"edge endpoint out of range [0, {n})")
        if not directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            w = np.concatenate([w, w])
        if remove_self_loops and len(src):
            keep = src != dst
            src, dst, w = src[keep], dst[keep], w[keep]
        # sort by (src, dst) and dedupe keeping the minimum weight
        indptr, indices, w = build_canonical_csr(src, dst, w, n)
        return cls(
            indptr=indptr,
            indices=indices,
            weights=w,
            name=name,
            directed=directed,
        )

    @classmethod
    def from_matrix(cls, A: Matrix, name: str = "graph", directed: bool = True) -> "Graph":
        """Adopt a GraphBLAS adjacency matrix (copies, canonicalized).

        Matrices built through the GraphBLAS layer may carry unsorted
        rows; the adopted CSR is canonicalized (rows sorted by target,
        duplicate targets min-combined) so binary-search edge lookups
        stay valid.
        """
        if A.nrows != A.ncols:
            raise ValueError("adjacency matrix must be square")
        return cls(
            indptr=A.indptr.copy(),
            indices=A.col_indices.copy(),
            weights=A.values.astype(np.float64, copy=True),
            name=name,
            directed=directed,
        ).canonicalize_rows()

    @classmethod
    def empty(cls, n: int, name: str = "empty") -> "Graph":
        """A graph with *n* vertices and no edges."""
        return cls(
            indptr=np.zeros(n + 1, dtype=INDEX_DTYPE),
            indices=np.empty(0, dtype=INDEX_DTYPE),
            weights=np.empty(0, dtype=np.float64),
            name=name,
        )

    # -- properties ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Stored (directed) edge count; undirected edges count twice."""
        return len(self.indices)

    @property
    def n(self) -> int:
        """Alias of :attr:`num_vertices`."""
        return self.num_vertices

    @property
    def max_weight(self) -> float:
        return float(self.weights.max()) if len(self.weights) else 0.0

    @property
    def min_weight(self) -> float:
        return float(self.weights.min()) if len(self.weights) else 0.0

    def out_degree(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    def row_sources(self) -> np.ndarray:
        """Source vertex of every stored edge, in CSR order.

        The COO row index — ``to_edges`` minus the target/weight copies;
        the expansion every edge-parallel pass needs.
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )

    def neighbors(self, v: int):
        """``(targets, weights)`` views of vertex *v*'s out-edges."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def has_unit_weights(self) -> bool:
        """True when every edge weight equals 1 (the paper's datasets)."""
        return bool(np.all(self.weights == 1.0)) if len(self.weights) else True

    def edge_weight(self, u: int, v: int) -> float | None:
        """Weight of edge ``u → v``, or ``None`` when absent.

        A membership scan over the row, so it is correct even on rows
        that are not sorted (e.g. a hand-built CSR); duplicate targets
        resolve to the minimum weight, matching the container semantics.
        """
        nbrs, wts = self.neighbors(u)
        hits = nbrs == v
        if not hits.any():
            return None
        return float(wts[hits].min())

    def has_canonical_rows(self) -> bool:
        """True when every CSR row is strictly increasing (sorted, deduped)."""
        if self.num_edges < 2:
            return True
        increasing = self.indices[1:] > self.indices[:-1]
        # comparisons that straddle a row boundary carry no constraint
        starts = np.asarray(self.indptr[1:-1], dtype=np.int64)
        starts = starts[(starts > 0) & (starts < self.num_edges)]
        increasing[starts - 1] = True
        return bool(increasing.all())

    def canonicalize_rows(self) -> "Graph":
        """Sort every row by target and min-combine duplicates, in place.

        Returns ``self``.  No-op (and no copies) when the CSR is already
        canonical, so constructors can call it unconditionally.
        """
        if self.has_canonical_rows():
            return self
        self.indptr, self.indices, self.weights = build_canonical_csr(
            self.row_sources(), self.indices, self.weights, self.num_vertices
        )
        return self

    # -- conversions -----------------------------------------------------------

    def csr(self):
        """Raw CSR triple ``(indptr, indices, weights)`` (views, not copies)."""
        return self.indptr, self.indices, self.weights

    def to_matrix(self) -> Matrix:
        """The GraphBLAS adjacency matrix ``A`` (shares the CSR arrays)."""
        n = self.num_vertices
        return Matrix.from_csr(self.indptr, self.indices, self.weights, ncols=n)

    def to_edges(self):
        """COO export: ``(sources, targets, weights)``."""
        return self.row_sources(), self.indices.copy(), self.weights.copy()

    def reverse(self) -> "Graph":
        """The graph with every edge reversed (CSC of the adjacency)."""
        src, dst, w = self.to_edges()
        return Graph.from_edges(
            dst, src, w, n=self.num_vertices, name=f"{self.name}-rev", directed=self.directed
        )

    def _public_meta(self) -> dict:
        """Metadata minus the ``_``-prefixed derived caches (see class
        docstring) — what copies inherit."""
        return {k: v for k, v in self.meta.items() if not k.startswith("_")}

    def copy(self, name: str | None = None) -> "Graph":
        """Deep copy (fresh CSR arrays, same epoch)."""
        return Graph(
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            weights=self.weights.copy(),
            name=name or self.name,
            directed=self.directed,
            meta=self._public_meta(),
            epoch=self.epoch,
        )

    def with_weights(self, weights: np.ndarray, name: str | None = None) -> "Graph":
        """Copy of this graph with a different weight array."""
        w = np.asarray(weights, dtype=np.float64)
        if len(w) != self.num_edges:
            raise ValueError("weight array length must equal num_edges")
        return Graph(
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            weights=w.copy(),
            name=name or self.name,
            directed=self.directed,
            meta=self._public_meta(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "digraph" if self.directed else "graph"
        return (
            f"Graph<{self.name}: {kind}, |V|={self.num_vertices}, "
            f"stored edges={self.num_edges}>"
        )
