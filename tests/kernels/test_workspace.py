"""Workspace reuse: steady-state phases must not allocate wave buffers."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.kernels import RelaxWorkspace, cached_row_ids, workspace_for
from repro.kernels.workspace import _ROW_IDS_KEY, _WORKSPACE_KEY
from repro.sssp.fused import _SPLIT_KEY, fused_delta_stepping
from repro.sssp.reference import dijkstra


class _RecordingWorkspace(RelaxWorkspace):
    """Counts distinct backing buffers handed out across waves."""

    def __init__(self, n):
        super().__init__(n)
        self.buffer_ids = set()
        self.waves = 0

    def wave_buffers(self, total):
        out = super().wave_buffers(total)
        self.waves += 1
        self.buffer_ids.add(id(out[0].base))
        return out


class TestSteadyStateReuse:
    def test_no_per_phase_allocations_across_solve(self, grid_graph):
        """The ISSUE acceptance check: buffer identity counted across phases.

        After one warmup solve the arena is at capacity; a steady-state
        solve must route every phase's wave through the *same* backing
        buffers with zero growths.
        """
        ws = _RecordingWorkspace(grid_graph.num_vertices)
        fused_delta_stepping(grid_graph, 0, 1.0, workspace=ws)  # warmup: grows allowed
        ws.buffer_ids.clear()
        ws.waves = 0
        grows_before = ws.grows
        r = fused_delta_stepping(grid_graph, 0, 1.0, workspace=ws, kernel="scatter")
        assert r.phases > 5  # a real multi-phase run
        # every non-empty relax wave went through the arena (heavy phases
        # on a unit-weight graph carry no edges and skip the gather)
        assert ws.waves >= r.buckets_processed
        assert ws.grows == grows_before  # no new allocations at steady state
        assert len(ws.buffer_ids) == 1  # one backing buffer served every phase

    def test_wave_buffer_views_share_base(self):
        ws = RelaxWorkspace(10)
        f1, t1, d1 = ws.wave_buffers(7)
        f2, t2, d2 = ws.wave_buffers(3)
        assert f1.base is f2.base and t1.base is t2.base and d1.base is d2.base
        assert ws.grows == 1

    def test_growth_is_geometric_and_monotone(self):
        ws = RelaxWorkspace(4)
        ws.wave_buffers(10)
        cap = len(ws._flat)
        ws.wave_buffers(cap)  # fits: no growth
        assert ws.grows == 1
        ws.wave_buffers(cap + 1)
        assert ws.grows == 2
        assert len(ws._flat) >= 2 * cap

    def test_iota_is_a_stable_ramp(self):
        ws = RelaxWorkspace(4)
        assert np.array_equal(ws.iota(5), np.arange(5))
        base = ws._iota
        assert ws.iota(3).base is base

    def test_reset_restores_invariant(self):
        ws = RelaxWorkspace(6)
        ws.req[2] = 1.0
        ws.touched[3] = True
        ws.reset()
        assert np.all(np.isinf(ws.req)) and not ws.touched.any()

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            RelaxWorkspace(-1)


class TestCheckInvariant:
    """``RelaxWorkspace.check()``: the debug assertion of the between-waves
    steady state (req all-inf, touched all-False), wired into the kernel
    property tests and the race harness."""

    def test_fresh_and_reset_arenas_pass(self):
        ws = RelaxWorkspace(8)
        ws.check()
        ws.req[1] = 0.5
        ws.reset()
        ws.check()

    def test_leaked_request_named(self):
        ws = RelaxWorkspace(8)
        ws.req[2] = 1.0
        with pytest.raises(AssertionError, match=r"req not all-inf at keys \[2\]"):
            ws.check()

    def test_stuck_touched_named(self):
        ws = RelaxWorkspace(8)
        ws.touched[5] = True
        with pytest.raises(AssertionError, match=r"touched not all-False at keys \[5\]"):
            ws.check()

    def test_listing_caps_at_eight_with_total(self):
        ws = RelaxWorkspace(32)
        ws.touched[:12] = True
        with pytest.raises(AssertionError, match=r"\(12 total\)"):
            ws.check()

    def test_clean_after_a_full_solve(self, grid_graph):
        ws = RelaxWorkspace(grid_graph.num_vertices)
        fused_delta_stepping(grid_graph, 0, 1.0, workspace=ws, kernel="scatter")
        ws.check()


class TestPerGraphCaching:
    def test_workspace_for_memoizes(self, grid_graph):
        ws1 = workspace_for(grid_graph)
        ws2 = workspace_for(grid_graph)
        assert ws1 is ws2
        assert grid_graph.meta[_WORKSPACE_KEY] is ws1

    def test_workspace_dropped_on_copy(self, grid_graph):
        workspace_for(grid_graph)
        assert _WORKSPACE_KEY not in grid_graph.copy().meta

    def test_row_ids_cached_per_epoch(self, grid_graph):
        ids1 = cached_row_ids(grid_graph)
        ids2 = cached_row_ids(grid_graph)
        assert ids1 is ids2
        ref = np.repeat(
            np.arange(grid_graph.num_vertices), np.diff(grid_graph.indptr)
        )
        assert np.array_equal(ids1, ref)

    def test_row_ids_recomputed_after_mutation(self, grid_graph):
        from repro.dynamic import apply_edge_updates

        ids_before = cached_row_ids(grid_graph)
        apply_edge_updates(grid_graph, deletes=[(0, 1)])
        ids_after = cached_row_ids(grid_graph)
        assert ids_after is not ids_before
        assert len(ids_after) == grid_graph.num_edges

    def test_row_ids_dropped_on_copy(self, grid_graph):
        cached_row_ids(grid_graph)
        assert _ROW_IDS_KEY not in grid_graph.copy().meta

    def test_split_reuses_one_expansion(self, grid_graph):
        """Light and heavy builds share the cached expansion (the satellite)."""
        from repro.sssp.fused import split_csr_light_heavy

        split_csr_light_heavy(grid_graph, 1.0)
        entry = grid_graph.meta[_ROW_IDS_KEY]
        split_csr_light_heavy(grid_graph, 0.5, fused=False)
        assert grid_graph.meta[_ROW_IDS_KEY] is entry  # no recompute

    def test_solves_correct_after_mutation_with_caches(self):
        """The epoch key keeps cached expansions honest across mutations."""
        from repro.dynamic import apply_edge_updates

        g = generators.grid_2d(5, 5)
        fused_delta_stepping(g, 0, 1.0)  # populate caches
        apply_edge_updates(g, deletes=[(0, 1)])
        r = fused_delta_stepping(g, 0, 1.0)
        assert np.array_equal(r.distances, dijkstra(g, 0).distances)


    def test_row_ids_read_only(self, grid_graph):
        ids = cached_row_ids(grid_graph)
        with pytest.raises(ValueError):
            ids[0] = 1


def _weighted_grid():
    from repro.graphs import assign_weights

    return assign_weights(generators.grid_2d(8, 8), "uniform", low=1.0, high=10.0, seed=3)


def _split_entry(g):
    return g.meta[_SPLIT_KEY]


class TestSplitCache:
    """The per-(graph, epoch, Δ) light/heavy split cache of ``relax_rows``."""

    def test_solve_batch_and_repair_share_one_entry(self, split_builds):
        from repro.dynamic import apply_edge_updates, repair_many
        from repro.service import batch_fused_delta_stepping

        g = _weighted_grid()
        r0 = fused_delta_stepping(g, 0, 4.0)
        entry = _split_entry(g)
        fused_delta_stepping(g, 5, 4.0)
        assert _split_entry(g) is entry
        batch_fused_delta_stepping(g, [0, 9, 17], 4.0)
        assert _split_entry(g) is entry
        assert split_builds == [True]
        # a repair on a new epoch builds once; a batch on that epoch reuses it
        applied = apply_edge_updates(g, reweights=[(0, 1, 9.5)])
        repair_many(g, [0], [r0.distances], applied, delta=4.0)
        entry = _split_entry(g)
        assert entry[0][0] == g.epoch
        batch_fused_delta_stepping(g, [3, 4], 4.0)
        repair_many(g, [0], [r0.distances], applied, delta=4.0)
        assert _split_entry(g) is entry
        assert split_builds == [True, True]

    def test_new_delta_replaces_entry(self):
        g = _weighted_grid()
        fused_delta_stepping(g, 0, 4.0)
        old = _split_entry(g)
        fused_delta_stepping(g, 0, 2.0)
        new = _split_entry(g)
        assert new is not old
        assert new[0] == (g.epoch, 2.0, g.num_edges)
        assert [k for k in g.meta if k == _SPLIT_KEY] == [_SPLIT_KEY]

    @pytest.mark.parametrize("batch", [
        {"deletes": [(0, 1)]},  # structural: CSR arrays replaced
        {"reweights": [(0, 1, 9.5)]},  # pure reweight: weights written in place
    ])
    def test_mutation_forces_rebuild(self, batch):
        from repro.dynamic import apply_edge_updates

        g = _weighted_grid()
        fused_delta_stepping(g, 0, 4.0)
        old = _split_entry(g)
        apply_edge_updates(g, **batch)
        r = fused_delta_stepping(g, 0, 4.0)
        assert _split_entry(g) is not old
        assert _split_entry(g)[0][0] == g.epoch
        assert np.array_equal(r.distances, dijkstra(g, 0).distances)

    def test_copy_drops_entry(self):
        g = _weighted_grid()
        fused_delta_stepping(g, 0, 4.0)
        assert _SPLIT_KEY not in g.copy().meta
        assert _SPLIT_KEY not in g.with_weights(g.weights * 2).meta

    def test_failed_mutation_rollback_drops_entry(self, monkeypatch):
        import repro.service.server as server_mod
        from repro.service import QueryService

        g = _weighted_grid()
        svc = QueryService(g, delta=4.0)
        svc.query(0), svc.query(1)
        real = server_mod.repair_many
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise RuntimeError("repair died")
            return real(*args, **kwargs)

        monkeypatch.setattr(server_mod, "REPAIR_GROUP_ROWS", 1)
        monkeypatch.setattr(server_mod, "repair_many", flaky)
        with pytest.raises(RuntimeError):
            svc.mutate(reweights=[(0, 1, 9.5)])
        assert _SPLIT_KEY not in g.meta

    @pytest.mark.parametrize("fuse_matrix_split, labels", [
        (True, {"filter:split"}),
        (False, {"filter:AL", "filter:AH"}),
    ])
    def test_measured_splits_bypass_cache(self, split_builds, fuse_matrix_split, labels):
        g = _weighted_grid()
        for _ in range(3):
            r = fused_delta_stepping(
                g, 0, 4.0, fuse_matrix_split=fuse_matrix_split, instrument=True
            )
            assert labels <= set(r.profile)
        assert split_builds == [fuse_matrix_split] * 3
        assert _SPLIT_KEY not in g.meta
        fused_delta_stepping(g, 0, 4.0)  # populate, then measure again
        entry = _split_entry(g)
        fused_delta_stepping(g, 0, 4.0, fuse_matrix_split=False)
        fused_delta_stepping(g, 0, 4.0, instrument=True)
        assert _split_entry(g) is entry
        assert len(split_builds) == 6

    def test_cached_arrays_read_only(self):
        g = _weighted_grid()
        fused_delta_stepping(g, 0, 4.0)
        (ALp, ALi, ALw), (AHp, AHi, AHw) = _split_entry(g)[1]
        for arr in (ALp, ALi, ALw, AHp, AHi, AHw):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("kernel", ["argsort", "scatter", "auto"])
    @pytest.mark.parametrize("fuse_relax", [False, True])
    def test_cached_solve_matches_cache_free(self, kernel, fuse_relax):
        g = _weighted_grid()
        fused_delta_stepping(g, 0, 4.0)
        entry = _split_entry(g)
        for source in (0, 27, 63):
            cached = fused_delta_stepping(g, source, 4.0, kernel=kernel, fuse_relax=fuse_relax)
            free = fused_delta_stepping(
                g.copy(), source, 4.0, kernel=kernel, fuse_relax=fuse_relax, instrument=True
            )
            assert np.array_equal(cached.distances, free.distances)
            assert (cached.buckets_processed, cached.phases, cached.relaxations,
                    cached.updates) == (free.buckets_processed, free.phases,
                                        free.relaxations, free.updates)
        assert _split_entry(g) is entry
