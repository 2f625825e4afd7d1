"""Answer checks for the benchmark, written against the graph's CSR arrays.

Nothing here calls the library's solvers or its graph statistics: the
component search and the shortest-path certificate read only the public
``indptr``/``indices``/``weights`` arrays, so a change to the measured code
cannot change what counts as a correct answer.  The one library call is
``repro.sssp.dijkstra``, the repo's textbook oracle, used on a seeded sample.
"""

from __future__ import annotations

import numpy as np


def edge_sources(indptr: np.ndarray) -> np.ndarray:
    """The source vertex of every stored edge, in CSR order."""
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def component_of(indptr: np.ndarray, indices: np.ndarray, root: int) -> np.ndarray:
    """Boolean mask of the vertices reachable from *root* (level-synchronous BFS)."""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[root] = True
    frontier = np.array([root], dtype=np.int64)
    while len(frontier):
        starts = indptr[frontier]
        lengths = indptr[frontier + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            break
        offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
        nbrs = indices[np.arange(total) - offsets + np.repeat(starts, lengths)]
        frontier = np.unique(nbrs[~seen[nbrs]])
        seen[frontier] = True
    return seen


def giant_component(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The component of the highest-degree vertex, which must hold most vertices.

    Holding more than half of the vertices makes it the largest component
    without labelling the others.
    """
    root = int(np.argmax(np.diff(indptr)))
    mask = component_of(indptr, indices, root)
    if 2 * int(mask.sum()) <= len(mask):
        raise RuntimeError("the highest-degree vertex is not in a majority component")
    return mask


def certify(graph, dist, source: int, component: np.ndarray, edge_src: np.ndarray) -> str | None:
    """Check *dist* is the exact shortest-path vector from *source*.

    An O(m) certificate for positive edge weights: ``dist[source] == 0``,
    no edge can still be relaxed, every other reached vertex has a tight
    in-edge, and the reached set is exactly *component*.  The first two
    bound every distance from above by the true one; following tight
    in-edges strictly decreases the distance and can only stop at the
    source, which bounds it from below.  Returns ``None`` when certified,
    else a short reason.
    """
    indices, weights = graph.indices, graph.weights
    d = np.asarray(dist, dtype=np.float64)
    if d.shape != (len(component),):
        return f"distance vector has shape {d.shape}"
    if d[source] != 0.0:
        return f"dist[source] = {d[source]!r}"
    reached = np.isfinite(d)
    if not np.array_equal(reached, component):
        return f"{int((reached != component).sum())} vertices disagree with the source's component"
    if (d[reached] < 0).any():
        return "negative distance"
    # edges out of unreached vertices give inf candidates, which neither
    # relax nor mark a reached head as tight
    cand = d[edge_src] + weights
    dv = d[indices]
    if (cand < dv).any():
        return f"{int((cand < dv).sum())} edges still relax"
    tight = np.zeros(len(d), dtype=bool)
    tight[indices[cand == dv]] = True
    tight[source] = True
    missing = reached & ~tight
    if missing.any():
        return f"{int(missing.sum())} reached vertices have no tight in-edge"
    return None
