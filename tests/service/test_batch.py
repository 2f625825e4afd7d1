"""The batch engine's contract: K-source results == K independent Dijkstra runs."""

import numpy as np
import pytest

from repro.bench.mutate_bench import build_update_batch
from repro.dynamic import apply_edge_updates, repair_many
from repro.graphs import datasets
from repro.graphs.graph import Graph
from repro.kernels import minby, workspace_for
from repro.service.batch import (
    BatchSSSPResult,
    batch_delta_stepping,
    batch_fused_delta_stepping,
)
from repro.sssp import dijkstra, fused_delta_stepping
from repro.sssp.delta import choose_delta


CI_GRAPHS = ["ci-ba", "ci-rmat", "ci-road", "ci-ws", "ci-er"]


class TestBatchMatchesDijkstra:
    @pytest.mark.parametrize("name", CI_GRAPHS)
    def test_ci_suite_unit_weights(self, name):
        g = datasets.load(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        sources = rng.choice(g.num_vertices, size=8, replace=False)
        res = batch_delta_stepping(g, sources)
        for k, s in enumerate(sources):
            oracle = dijkstra(g, int(s)).distances
            assert np.array_equal(res.distances[k], oracle), f"{name} row {k}"

    def test_weighted_graph(self, random_weighted_graph):
        g = random_weighted_graph
        sources = [0, 5, 17, 99]
        res = batch_delta_stepping(g, sources, delta=0.3)
        for k, s in enumerate(sources):
            oracle = dijkstra(g, s).distances
            assert np.allclose(res.distances[k], oracle)
            assert np.array_equal(
                np.isfinite(res.distances[k]), np.isfinite(oracle)
            )

    def test_k64_rmat_takes_the_state_sized_scatter_path(self, monkeypatch):
        g = datasets.load("ci-rmat")
        sources = np.random.default_rng(64).choice(g.num_vertices, size=64, replace=False)
        scatter_keys = []
        real_scatter = minby.min_by_target_scatter

        def spy(targets, dists, workspace):
            scatter_keys.append(workspace.n)
            return real_scatter(targets, dists, workspace)

        monkeypatch.setattr(minby, "min_by_target_scatter", spy)
        res = batch_delta_stepping(g, sources)
        # dense waves scatter-min into a workspace covering the K·n state
        assert 64 * g.num_vertices in scatter_keys
        for k, s in enumerate(sources):
            assert np.array_equal(res.distances[k], dijkstra(g, int(s)).distances), k

    def test_duplicate_sources_allowed(self, diamond_graph):
        res = batch_delta_stepping(diamond_graph, [0, 0, 2])
        assert np.array_equal(res.distances[0], res.distances[1])

    def test_matches_single_source_fused(self, grid_graph):
        sources = [0, 13, 63]
        res = batch_delta_stepping(grid_graph, sources)
        for k, s in enumerate(sources):
            single = fused_delta_stepping(grid_graph, s, 1.0)
            assert np.array_equal(res.distances[k], single.distances)
        # at K=1 the shared engine runs the single-source schedule exactly
        for name in CI_GRAPHS:
            g = datasets.load(name)
            one = batch_delta_stepping(g, [3])
            single = fused_delta_stepping(g, 3, one.delta)
            assert np.array_equal(one.distances[0], single.distances), name
            assert (one.buckets_processed, one.phases, one.relaxations, one.updates) == (
                single.buckets_processed, single.phases, single.relaxations, single.updates,
            ), name


class TestBatchShape:
    def test_result_for_repackages_rows(self, diamond_graph):
        res = batch_delta_stepping(diamond_graph, [0, 1])
        single = res.result_for(1)
        assert single.source == 1
        assert np.array_equal(single.distances, res.distances[1])
        with pytest.raises(IndexError):
            res.result_for(2)

    def test_counters_aggregate(self, grid_graph):
        res = batch_delta_stepping(grid_graph, [0, 63])
        assert res.num_sources == 2
        assert res.phases > 0
        assert res.relaxations > 0
        assert isinstance(res, BatchSSSPResult)

    def test_shared_waves_fewer_phases_than_sum(self, grid_graph):
        """The batching win: K sources share waves instead of summing them."""
        sources = [0, 7, 56, 63]
        batch = batch_delta_stepping(grid_graph, sources)
        single_phases = sum(
            fused_delta_stepping(grid_graph, s, 1.0).phases for s in sources
        )
        assert batch.phases < single_phases

    def test_graph_workspace_clean_after_batch_and_repair(self):
        g = datasets.load("ci-ws", weights="uniform", seed=5).copy()
        ws = workspace_for(g)
        batch_delta_stepping(g, [0], delta=1.0)
        ws.check()
        sources = [0, 7, 42]
        before = batch_delta_stepping(g, sources, delta=1.0).distances
        ws.check()
        inserts, deletes, reweights = build_update_batch(g, 0.02, np.random.default_rng(5))
        applied = apply_edge_updates(g, inserts=inserts, deletes=deletes, reweights=reweights)
        repaired = repair_many(g, sources, before, applied, delta=1.0)
        ws.check()
        for s, r in zip(sources, repaired):
            assert np.array_equal(r.distances, dijkstra(g, s).distances)

    def test_delta_auto_selection(self, grid_graph):
        res = batch_delta_stepping(grid_graph, [0])
        assert res.delta == choose_delta(grid_graph)


class TestBatchValidation:
    def test_empty_sources_rejected(self, diamond_graph):
        with pytest.raises(ValueError):
            batch_delta_stepping(diamond_graph, [])

    def test_out_of_range_source(self, diamond_graph):
        with pytest.raises(IndexError):
            batch_delta_stepping(diamond_graph, [0, 99])

    def test_nonpositive_delta(self, diamond_graph):
        with pytest.raises(ValueError):
            batch_delta_stepping(diamond_graph, [0], delta=0.0)

    def test_unknown_method(self, diamond_graph):
        with pytest.raises(ValueError, match="unknown batch method"):
            batch_delta_stepping(diamond_graph, [0], method="magic")

    def test_state_size_guard(self):
        g = Graph.empty(1 << 20)
        with pytest.raises(ValueError, match="chunk the sources"):
            batch_fused_delta_stepping(g, list(range(200)), 1.0)

    def test_disconnected_rows_are_inf(self):
        g = Graph.from_edges([0, 3], [1, 4], n=6)
        res = batch_delta_stepping(g, [0, 3])
        assert np.isinf(res.distances[0, 3:]).all()
        assert np.isinf(res.distances[1, :3]).all()
        assert res.distances[0, 1] == 1.0
        assert res.distances[1, 4] == 1.0
