"""Δ selection heuristics.

The paper runs Δ=1 on unit-weight graphs and observes (§VII) that this
makes delta-stepping "analogous to the original Dijkstra's algorithm"
(every bucket is a single distance level).  For weighted graphs the
choice trades work against parallelism — Meyer & Sanders suggest
Δ = Θ(1/d) for maximum degree d under random uniform weights.  These
heuristics back the Δ-sweep ablation (ABL-DELTA in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph

__all__ = ["check_delta", "choose_delta", "DELTA_STRATEGIES", "dijkstra_equivalent_delta", "bellman_ford_equivalent_delta"]


def check_delta(delta: float) -> None:
    """Reject a bucket width outside ``0 < Δ < inf`` (NaN included).

    Bucket windows are ``[iΔ, (i+1)Δ)``: ``Δ = inf`` makes ``0·Δ`` NaN,
    so bucket 0 drops its frontier and the solve quietly returns only
    its sources, and ``Δ = NaN`` fails in the bucket queue with an
    error that asks for a larger Δ.  The engine's entry points (solve,
    batch, repair) share this one check.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")


def dijkstra_equivalent_delta(graph: Graph) -> float:
    """Δ that degenerates delta-stepping towards Dijkstra.

    For unit weights, Δ=1 (the paper's setting): each bucket holds exactly
    one distance level.  In general the smallest edge weight guarantees at
    most one relaxation wave per bucket re-entry.
    """
    if graph.has_unit_weights():
        return 1.0
    positive = graph.weights[graph.weights > 0]
    # all-zero weights leave no positive minimum; Δ=1.0 keeps every
    # solver valid (all distances are 0, bucket 0 holds everything)
    return float(positive.min()) if len(positive) else 1.0


def bellman_ford_equivalent_delta(graph: Graph) -> float:
    """Δ that degenerates delta-stepping to Bellman–Ford (one big bucket).

    Any Δ strictly above the largest possible path weight works; we use
    ``n · max_weight + 1`` so every vertex lands in bucket 0 forever.
    On huge weights that product overflows float64 to ``inf``, which no
    solver accepts as a bucket width — clamp to the largest finite
    float, which still exceeds every representable path weight (any path
    summing past it is itself ``inf``, i.e. unreachable).
    """
    delta = graph.num_vertices * max(graph.max_weight, 1.0) + 1.0
    if not np.isfinite(delta):
        return float(np.finfo(np.float64).max)
    return float(delta)


def _meyer_sanders_delta(graph: Graph) -> float:
    """Δ = Θ(1/d): max weight over average out-degree."""
    if graph.max_weight <= 0:
        return 1.0  # zero-weight graph: any positive Δ degenerates cleanly
    deg = graph.out_degree()
    avg_deg = float(deg.mean()) if len(deg) else 1.0
    return max(graph.max_weight / max(avg_deg, 1.0), 1e-9)


def _average_weight_delta(graph: Graph) -> float:
    mean = float(graph.weights.mean()) if graph.num_edges else 1.0
    return mean if mean > 0 else 1.0


DELTA_STRATEGIES = {
    "unit": lambda g: 1.0,
    "dijkstra": dijkstra_equivalent_delta,
    "bellman-ford": bellman_ford_equivalent_delta,
    "meyer-sanders": _meyer_sanders_delta,
    "avg-weight": _average_weight_delta,
}


def choose_delta(graph: Graph, strategy: str = "auto") -> float:
    """Pick Δ for *graph*.

    ``"auto"``: 1.0 for unit-weight graphs (the paper's configuration),
    otherwise the Meyer–Sanders Θ(1/d) heuristic.  Other strategies:
    ``"unit"``, ``"dijkstra"``, ``"bellman-ford"``, ``"meyer-sanders"``,
    ``"avg-weight"``.
    """
    if strategy == "auto":
        if graph.has_unit_weights():
            return 1.0
        return _meyer_sanders_delta(graph)
    try:
        return float(DELTA_STRATEGIES[strategy](graph))
    except KeyError:
        known = ", ".join(["auto", *DELTA_STRATEGIES])
        raise ValueError(f"unknown delta strategy {strategy!r}; known: {known}") from None
