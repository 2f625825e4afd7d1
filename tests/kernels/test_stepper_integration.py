"""Registry-wide kernel bit-identity + counter-parity regressions.

The kernel core's contract is that swapping the per-target-min kernel can
never change a distance or a work counter: every kernel-capable member of
``STEPPERS`` must stay bit-identical to Dijkstra under ``kernel=scatter``,
and the fused stepper's two relax variants must keep counter parity on
the awkward graphs (unreachable vertices, zero-weight edges).
"""

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.sssp.fused import fused_delta_stepping
from repro.sssp.reference import dijkstra
from repro.stepping import STEPPERS, solve_with


def _graphs(rng):
    gs = {}
    # random weighted digraph
    m = 400
    gs["random"] = Graph.from_edges(
        rng.integers(0, 80, size=m), rng.integers(0, 80, size=m),
        rng.uniform(0.05, 1.0, size=m), n=80,
    )
    # unreachable tail: vertices 90..99 have no incoming path from 0
    src = rng.integers(0, 60, size=200)
    dst = rng.integers(0, 60, size=200)
    gs["unreachable"] = Graph.from_edges(
        np.concatenate([src, [90, 91]]), np.concatenate([dst, [91, 92]]),
        np.concatenate([rng.uniform(0.1, 2.0, size=200), [1.0, 1.0]]), n=100,
    )
    # zero-weight edges sprinkled in
    w = rng.uniform(0.0, 1.0, size=300)
    w[rng.integers(0, 300, size=40)] = 0.0
    gs["zero-weight"] = Graph.from_edges(
        rng.integers(0, 70, size=300), rng.integers(0, 70, size=300), w, n=70,
    )
    # single vertex
    gs["single"] = Graph.empty(1)
    return gs


@pytest.fixture(scope="module")
def graphs():
    return _graphs(np.random.default_rng(7))


class TestRegistryBitIdentity:
    @pytest.mark.parametrize("name", sorted(STEPPERS))
    def test_every_stepper_vs_dijkstra_under_scatter(self, graphs, name):
        """The ISSUE satellite: every STEPPERS entry, kernel=scatter, bitwise."""
        stepper = STEPPERS[name]
        for label, g in graphs.items():
            oracle = dijkstra(g, 0).distances
            if stepper.kernel_capable:
                r = solve_with(f"{name}(kernel=scatter)", g, 0)
            else:
                r = stepper.solve(g, 0)
            assert np.array_equal(r.distances, oracle), (name, label)

    @pytest.mark.parametrize("name", [n for n in sorted(STEPPERS) if STEPPERS[n].kernel_capable])
    def test_kernel_capable_argsort_matches_scatter(self, graphs, name):
        g = graphs["zero-weight"]
        a = solve_with(f"{name}(kernel=argsort)", g, 0)
        b = solve_with(f"{name}(kernel=scatter)", g, 0)
        assert np.array_equal(a.distances, b.distances)
        assert a.phases == b.phases
        assert a.relaxations == b.relaxations
        assert a.updates == b.updates

    def test_kernel_capable_flags_cover_expected_members(self):
        capable = {n for n, s in STEPPERS.items() if s.kernel_capable}
        assert {"delta", "rho", "radius", "delta-star", "sharded", "bellman-ford"} <= capable
        assert "dijkstra" not in capable

    def test_unknown_kernel_spec_rejected(self, graphs):
        with pytest.raises(ValueError, match="unknown kernel"):
            solve_with("delta(kernel=quantum)", graphs["random"], 0)


class TestFusedCounterParity:
    """Regression: fuse_relax=True/False count over different candidate
    representations; the kernels must preserve their parity exactly."""

    def _parity(self, g, source, delta, kernel):
        rs = [
            fused_delta_stepping(g, source, delta, fuse_relax=fr, kernel=kernel)
            for fr in (True, False)
        ]
        a, b = rs
        assert np.array_equal(a.distances, b.distances)
        assert a.buckets_processed == b.buckets_processed
        assert a.phases == b.phases
        assert a.relaxations == b.relaxations
        assert a.updates == b.updates
        return a

    @pytest.mark.parametrize("kernel", ["auto", "argsort", "scatter"])
    def test_parity_with_unreachable_vertices(self, graphs, kernel):
        r = self._parity(graphs["unreachable"], 0, 0.4, kernel)
        assert np.isinf(r.distances).any()  # the tail really is unreachable

    @pytest.mark.parametrize("kernel", ["auto", "argsort", "scatter"])
    def test_parity_with_zero_weight_edges(self, graphs, kernel):
        self._parity(graphs["zero-weight"], 0, 0.3, kernel)

    @pytest.mark.parametrize("kernel", ["auto", "argsort", "scatter"])
    def test_parity_on_diamond(self, diamond_graph, kernel):
        self._parity(diamond_graph, 0, 3.0, kernel)

    def test_parity_counters_match_dijkstra_distances(self, graphs):
        for label, g in graphs.items():
            r = self._parity(g, 0, 0.5, "scatter")
            assert np.array_equal(r.distances, dijkstra(g, 0).distances), label
