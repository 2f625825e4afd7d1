"""QueryService.mutate: epoch keying, hot repair, landmark staleness, planner reset."""

import numpy as np
import pytest

from repro.dynamic import InvalidWeightError
from repro.graphs import generators as gen
from repro.service import DistanceCache, LandmarkIndex, Query, QueryService
from repro.sssp import dijkstra


def _graph():
    return gen.watts_strogatz(60, k=4, beta=0.2, seed=5)


class TestEpochKeying:
    def test_epoch_bump_misses_without_invalidate_call(self):
        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(g.num_vertices))
        g.epoch += 1  # what apply_edge_updates does
        assert cache.get(g, 0) is None
        stats = cache.stats()
        assert stats.invalidations == 0  # nothing was manually invalidated

    def test_take_entries_harvests_and_removes(self):
        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(g.num_vertices))
        cache.put(g, 3, "uniform", np.ones(g.num_vertices))
        taken = cache.take_entries(g)
        assert set(taken) == {(0, "unit"), (3, "uniform")}
        assert len(cache) == 0
        assert cache.stats().invalidations == 0

    def test_take_entries_skips_stale_epochs(self):
        """Regression: entries parked under an older epoch (the graph was
        mutated directly, bypassing the service) must never be handed out
        as repair baselines — they describe a graph that no longer exists."""
        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(g.num_vertices))
        g.epoch += 1  # direct apply_edge_updates, not via the service
        cache.put(g, 5, "unit", np.ones(g.num_vertices))
        taken = cache.take_entries(g)
        assert set(taken) == {(5, "unit")}  # only the current-epoch entry
        assert len(cache) == 0  # the stale one is dropped, not left behind


class TestHotRepair:
    def test_cached_answers_survive_mutation(self):
        g = _graph()
        svc = QueryService(g)
        first = svc.query(0)  # one-to-many, populates the cache
        assert not first.from_cache
        report = svc.mutate(reweights=[(0, int(g.indices[g.indptr[0]]), 0.25)])
        assert report.repaired_entries == 1
        assert report.epoch == 1
        again = svc.query(0)
        assert again.from_cache  # repaired in place, still hot
        assert np.array_equal(again.distances, dijkstra(g, 0).distances)

    def test_drop_policy_discards(self):
        g = _graph()
        svc = QueryService(g)
        svc.query(0)
        report = svc.mutate(
            reweights=[(0, int(g.indices[g.indptr[0]]), 0.25)], repair="drop"
        )
        assert report.repaired_entries == 0
        assert report.dropped_entries == 1
        resp = svc.query(0)
        assert not resp.from_cache  # re-solved cold
        assert np.array_equal(resp.distances, dijkstra(g, 0).distances)

    def test_other_weight_mode_entries_dropped(self):
        g = _graph()
        cache = DistanceCache()
        svc = QueryService(g, weight_mode="unit", cache=cache)
        cache.put(g, 7, "uniform", np.zeros(g.num_vertices))
        svc.query(0)
        report = svc.mutate(deletes=[(0, int(g.indices[g.indptr[0]]))])
        assert report.repaired_entries == 1  # the unit-mode entry
        assert report.dropped_entries == 1  # the uniform-mode entry

    def test_unknown_repair_policy(self):
        svc = QueryService(_graph())
        with pytest.raises(ValueError, match="repair policy"):
            svc.mutate(repair="magic")

    def test_rejected_batch_keeps_cache_intact(self):
        """Regression: a strict-mode ValueError left the cache emptied even
        though the graph never changed; harvested entries must be restored."""
        g = _graph()
        svc = QueryService(g)
        svc.query(0)
        missing = next(
            v for v in range(1, g.num_vertices) if g.edge_weight(0, v) is None
        )
        with pytest.raises(ValueError, match="missing edge"):
            svc.mutate(deletes=[(0, missing)])
        assert g.epoch == 0
        resp = svc.query(0)
        assert resp.from_cache  # the valid entry survived the rejected batch

    def test_nan_reweight_rejected_and_cache_stays_exact(self):
        """Regression: ``NaN < 0`` is False, so a NaN reweight used to be
        accepted; the repaired cache then answered 0 -> 1 = 1.0 (exact)
        while Dijkstra on the mutated graph gave 4.0."""
        g = gen.road_network(3, 3)
        svc = QueryService(g)
        before = svc.query(0, 1)
        with pytest.raises(InvalidWeightError):
            svc.mutate(reweights=[(0, 1, float("nan"))])
        assert g.epoch == 0
        assert svc.stats().mutations_applied == 0
        again = svc.query(0, 1)
        assert again.exact and again.distance == before.distance
        assert again.distance == dijkstra(g, 0).distances[1]

    def test_groups_of_rows_all_repaired_exactly(self):
        """More cached entries than one repair group: every group's rows
        are re-cached and bit-identical to a cold solve."""
        from repro.service.server import REPAIR_GROUP_ROWS

        g = _graph()
        svc = QueryService(g)
        sources = range(REPAIR_GROUP_ROWS + 5)
        for s in sources:
            svc.query(s)
        report = svc.mutate(
            deletes=[(0, int(g.indices[g.indptr[0]]))],
            reweights=[(5, int(g.indices[g.indptr[5]]), 0.1)],
        )
        assert report.repaired_entries == len(sources)
        for s in sources:
            resp = svc.query(s)
            assert resp.from_cache
            assert np.array_equal(resp.distances, dijkstra(g, s).distances)

    def test_mutation_stats(self):
        g = _graph()
        svc = QueryService(g)
        svc.query(0)
        svc.mutate(reweights=[(0, int(g.indices[g.indptr[0]]), 0.3)])
        stats = svc.stats()
        assert stats.mutations_applied == 1
        assert stats.entries_repaired == 1

    def test_repeated_mutations_stay_exact(self):
        g = _graph()
        svc = QueryService(g)
        rng = np.random.default_rng(9)
        svc.query(0)
        for _ in range(4):
            src_all = np.repeat(
                np.arange(g.num_vertices, dtype=np.int64), np.diff(g.indptr)
            )
            upper = np.nonzero(src_all < g.indices)[0]
            p = int(rng.choice(upper))
            svc.mutate(
                reweights=[(int(src_all[p]), int(g.indices[p]), float(rng.uniform(0.2, 3.0)))]
            )
        resp = svc.query(0)
        assert resp.from_cache
        assert np.array_equal(resp.distances, dijkstra(g, 0).distances)


class TestLandmarkStaleness:
    def test_mutate_marks_stale_and_lazy_rebuild(self):
        g = _graph()
        lm = LandmarkIndex.build(g, 3)
        svc = QueryService(g, landmarks=lm)
        assert not lm.stale
        svc.mutate(reweights=[(0, int(g.indices[g.indptr[0]]), 0.25)])
        assert lm.stale
        assert lm.rebuilds == 0  # lazy: nothing rebuilt yet
        lm.ensure_fresh()
        assert not lm.stale and lm.rebuilds == 1
        # fresh tables bound the true distance again
        true = float(dijkstra(g, 1).distances[40])
        est = lm.estimate(1, 40)
        assert est.lower <= true <= est.upper

    def test_ensure_fresh_noop_when_fresh(self):
        lm = LandmarkIndex.build(_graph(), 2)
        assert lm.ensure_fresh() is False
        assert lm.rebuilds == 0

    def test_unbound_stale_index_raises(self):
        lm = LandmarkIndex.build(_graph(), 2)
        unbound = LandmarkIndex(lm.landmarks, lm.dist_from, lm.dist_to)
        unbound.mark_stale()
        with pytest.raises(RuntimeError, match="no bound graph"):
            unbound.ensure_fresh()

    def test_approximate_answer_triggers_rebuild(self):
        g = _graph()
        lm = LandmarkIndex.build(g, 3)
        svc = QueryService(g, landmarks=lm, latency_budget_ms=0.0)
        # calibrate the cost model so the budget can route approximate
        svc.query(0)
        svc.mutate(reweights=[(0, int(g.indices[g.indptr[0]]), 0.25)])
        assert lm.stale
        svc.query(1)  # cache hit? no — new source; planner may route approx
        svc.submit(Query(source=2, target=9))
        svc.submit(Query(source=3, target=9))
        responses = svc.drain()
        if any(not r.exact for r in responses):
            assert not lm.stale  # the approximate path rebuilt lazily


class TestPlannerReset:
    def test_note_mutation_resets_cost_model(self):
        g = _graph()
        svc = QueryService(g)
        svc.query(0)
        assert svc.planner.predicted_exact_ms(1) is not None
        svc.mutate(reweights=[(0, int(g.indices[g.indptr[0]]), 0.5)])
        assert svc.planner.predicted_exact_ms(1) is None
