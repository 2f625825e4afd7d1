"""Regression: a repair failing mid-mutation must roll the service back.

The hot-repair loop runs *after* the epoch has advanced and may have
re-put some entries under the new epoch before dying.  The service must
rewind to the pre-mutation snapshot — graph arrays, epoch, Δ, and cache
— so every source that answered from cache before the call still
answers bit-identically after the failure.
"""

import numpy as np
import pytest

import repro.service.server as server_mod
from repro.graphs.generators import watts_strogatz
from repro.service.server import QueryService


@pytest.fixture()
def graph():
    return watts_strogatz(100, 6, 0.1, seed=11)


@pytest.fixture()
def service(graph):
    return QueryService(graph)


def reweight_batch(graph):
    return [(0, int(graph.indices[graph.indptr[0]]), 5.0)]


def failing_groups(monkeypatch, fail_after=1):
    """Patch repair_many to die after *fail_after* successful repair
    groups — a genuine mid-flight failure, earlier groups already re-put."""
    calls = {"n": 0}
    real = server_mod.repair_many

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > fail_after:
            raise RuntimeError("repair kernel died mid-flight")
        return real(*args, **kwargs)

    monkeypatch.setattr(server_mod, "repair_many", flaky)
    return calls


def failing_repairs(monkeypatch, fail_after=1):
    """One entry per repair group, dying after *fail_after* repairs."""
    monkeypatch.setattr(server_mod, "REPAIR_GROUP_ROWS", 1)
    return failing_groups(monkeypatch, fail_after)


class TestRollback:
    def test_graph_epoch_weights_delta_restored(self, service, graph, monkeypatch):
        r0, r1 = service.query(0), service.query(1)  # warm two cache entries
        weights_before = graph.weights.copy()
        indptr_before, indices_before = graph.indptr, graph.indices
        epoch_before, delta_before = graph.epoch, service.delta

        failing_repairs(monkeypatch, fail_after=1)
        with pytest.raises(RuntimeError, match="mid-flight"):
            service.mutate(reweights=reweight_batch(graph), strict=False)

        assert graph.epoch == epoch_before
        assert service.delta == delta_before
        np.testing.assert_array_equal(graph.weights, weights_before)
        # structure arrays are only ever replaced wholesale; a pure
        # reweight rollback must hand back the very same objects
        assert graph.indptr is indptr_before
        assert graph.indices is indices_before

    def test_service_answers_from_pre_mutation_snapshot(
        self, service, graph, monkeypatch
    ):
        before = {s: service.query(s) for s in (0, 1, 2)}
        failing_repairs(monkeypatch, fail_after=1)
        with pytest.raises(RuntimeError):
            service.mutate(reweights=reweight_batch(graph), strict=False)

        for s, resp in before.items():
            again = service.query(s)
            assert again.from_cache, f"source {s} lost its cache entry"
            np.testing.assert_array_equal(again.distances, resp.distances)

    def test_no_aborted_epoch_entries_survive(self, service, graph, monkeypatch):
        # fail_after=1: the first harvested entry IS re-put under the
        # aborted epoch before the second repair dies — rollback must
        # evict it, not let it shadow the snapshot
        service.query(0)
        service.query(1)
        failing_repairs(monkeypatch, fail_after=1)
        with pytest.raises(RuntimeError):
            service.mutate(reweights=reweight_batch(graph), strict=False)
        stats = service.stats()
        assert stats.cache.size == 2
        assert stats.mutations_applied == 0

    def test_service_recovers_for_later_mutations(self, service, graph, monkeypatch):
        service.query(0)
        calls = failing_repairs(monkeypatch, fail_after=0)
        with pytest.raises(RuntimeError):
            service.mutate(reweights=reweight_batch(graph), strict=False)
        assert calls["n"] == 1
        # with the patch lifted the same batch applies cleanly
        monkeypatch.undo()
        report = service.mutate(reweights=reweight_batch(graph), strict=False)
        assert report.epoch == graph.epoch
        assert report.repaired_entries == 1
        # and the repaired answer matches a cold re-solve
        repaired = service.query(0)
        cold = QueryService(graph).query(0)
        np.testing.assert_array_equal(repaired.distances, cold.distances)


class TestGroupedRollback:
    """A failure in the *second* repair group, at the real group size."""

    def test_second_group_failure_evicts_first_group(self, service, graph, monkeypatch):
        sources = range(server_mod.REPAIR_GROUP_ROWS + 3)  # two groups
        before = {s: service.query(s) for s in sources}
        calls = failing_groups(monkeypatch, fail_after=1)
        with pytest.raises(RuntimeError, match="mid-flight"):
            service.mutate(reweights=reweight_batch(graph), strict=False)
        assert calls["n"] == 2  # the first group was repaired and re-put

        stats = service.stats()
        assert stats.cache.size == len(before)
        assert stats.mutations_applied == 0
        assert graph.epoch == 0
        for s, resp in before.items():
            again = service.query(s)
            assert again.from_cache, f"source {s} lost its cache entry"
            np.testing.assert_array_equal(again.distances, resp.distances)
