"""Stepping × service × dynamic integration: the portfolio behind every door."""

import numpy as np
import pytest

from repro.bench.mutate_bench import build_update_batch
from repro.dynamic import apply_edge_updates, repair_sssp
from repro.graphs import datasets
from repro.service import Query, QueryPlanner, QueryService, batch_delta_stepping
from repro.service.batch import batch_stepper_loop
from repro.sssp import dijkstra
from repro.sssp.fused import fused_delta_stepping
from repro.stepping import AutoTuner


@pytest.fixture(scope="module")
def ws_graph():
    return datasets.load("ci-ws")


class TestBatchDispatch:
    @pytest.mark.parametrize(
        "method",
        ["rho", "radius", "delta-star", "bellman-ford", "delta(kernel=scatter)", "delta(delta=2)"],
    )
    def test_batch_via_stepper_matches_dijkstra(self, ws_graph, method):
        sources = [0, 7, 42]
        res = batch_delta_stepping(ws_graph, sources, method=method)
        assert res.method == f"batch-loop:{method}"
        for k, s in enumerate(sources):
            assert np.array_equal(res.distances[k], dijkstra(ws_graph, s).distances)

    def test_delta_aliases_to_native_engine(self, ws_graph):
        """"delta" IS batched delta-stepping: it routes to the shared-wave
        engine, not the per-source loop."""
        res = batch_delta_stepping(ws_graph, [0, 7], method="delta")
        assert res.method == "batch-delta"

    def test_unknown_method_enumerates_both_registries(self, ws_graph):
        """The error lists the stepper registry, the one dispatch table."""
        with pytest.raises(ValueError) as excinfo:
            batch_delta_stepping(ws_graph, [0], method="warp-drive")
        message = str(excinfo.value)
        assert "delta" in message and "rho" in message and "radius" in message
        assert "fused" not in message

    def test_stepper_loop_counters_aggregate(self, ws_graph):
        res = batch_stepper_loop(ws_graph, [0, 7], stepper="rho")
        single = sum(
            __import__("repro.stepping", fromlist=["solve_with"]).solve_with(
                "rho", ws_graph, s
            ).updates
            for s in (0, 7)
        )
        assert res.updates == single


class TestPlannerRouting:
    def test_pinned_stepper_stamped_on_plan(self):
        planner = QueryPlanner(stepper="rho")
        plan = planner.plan([Query(source=0)])
        assert plan.stepper == "rho"

    def test_tuned_stepper_used_when_unpinned(self):
        planner = QueryPlanner()
        planner.set_tuned_stepper("radius")
        assert planner.plan([Query(source=0)]).stepper == "radius"

    def test_pinned_beats_tuned(self):
        planner = QueryPlanner(stepper="rho")
        planner.set_tuned_stepper("radius")
        assert planner.stepper == "rho"

    def test_mutation_clears_tuned_keeps_pinned(self):
        planner = QueryPlanner(stepper="rho")
        planner.set_tuned_stepper("radius")
        planner.note_mutation()
        assert planner.stepper == "rho"
        planner = QueryPlanner()
        planner.set_tuned_stepper("radius")
        planner.note_mutation()
        assert planner.stepper is None


class TestServiceStepping:
    def test_pinned_stepper_answers_exactly(self, ws_graph):
        svc = QueryService(ws_graph, stepper="rho")
        resp = svc.query(0)
        assert np.array_equal(resp.distances, dijkstra(ws_graph, 0).distances)

    def test_autotune_service_answers_exactly(self, ws_graph):
        svc = QueryService(ws_graph, tuner=AutoTuner(num_sources=1, repeats=1))
        resp = svc.query(3)
        assert np.array_equal(resp.distances, dijkstra(ws_graph, 3).distances)
        # the tuned pick landed on the planner
        assert svc.planner.stepper in AutoTuner().candidates

    def test_autotune_retunes_after_mutation(self):
        g = datasets.load("ci-ws").copy()
        svc = QueryService(g, tuner=AutoTuner(num_sources=1, repeats=1))
        svc.query(0)
        assert svc.planner.stepper is not None
        svc.mutate(reweights=[(0, int(g.indices[0]), 0.5)])
        assert svc.planner.stepper is None  # cleared; re-tunes lazily
        # source 0 was repaired in place: a cache-only drain must answer
        # exactly WITHOUT paying a re-probe
        resp = svc.query(0)
        assert resp.from_cache
        assert svc.planner.stepper is None
        assert np.array_equal(resp.distances, dijkstra(g, 0).distances)
        # the next cold source needs an exact solve -> the probe runs
        resp = svc.query(9)
        assert svc.planner.stepper is not None
        assert np.array_equal(resp.distances, dijkstra(g, 9).distances)

    def test_autotune_probe_skipped_on_cached_drain(self, ws_graph):
        tuner = AutoTuner(num_sources=1, repeats=1)
        svc = QueryService(ws_graph, tuner=tuner)
        svc.query(0)  # cold: probes + solves
        probed = dict(tuner._reports)
        resp = svc.query(0)  # warm: cache hit, no batches
        assert resp.from_cache
        assert dict(tuner._reports) == probed  # no new probe happened

    def test_parameterized_delta_spec_answers_exactly(self, ws_graph):
        svc = QueryService(ws_graph, stepper="delta(kernel=scatter)")
        resp = svc.query(5)
        assert np.array_equal(resp.distances, dijkstra(ws_graph, 5).distances)

    def test_tuned_parameterized_delta_spec_answers_exactly(self, ws_graph):
        svc = QueryService(ws_graph, tuner=AutoTuner(candidates=("delta(kernel=scatter)",)))
        sources = [0, 9, 42]
        for s in sources:
            svc.submit(Query(source=s))
        responses = svc.drain()
        assert svc.planner.stepper == "delta(kernel=scatter)"
        for s, resp in zip(sources, responses):
            assert np.array_equal(resp.distances, dijkstra(ws_graph, s).distances)

    def test_stepper_param_installs_on_custom_planner(self, ws_graph):
        planner = QueryPlanner(max_batch_size=4)
        svc = QueryService(ws_graph, planner=planner, stepper="delta-star")
        assert planner.stepper == "delta-star"
        resp = svc.query(1)
        assert np.array_equal(resp.distances, dijkstra(ws_graph, 1).distances)


class TestSteppedRepair:
    @pytest.mark.parametrize("stepper", ["rho", "radius", "delta-star"])
    def test_repair_on_stepper_bit_identical(self, stepper):
        g = datasets.load("ci-ws", weights="uniform", seed=3).copy()
        d0 = fused_delta_stepping(g, 0, 1.0).distances
        rng = np.random.default_rng(11)
        inserts, deletes, reweights = build_update_batch(g, 0.02, rng)
        applied = apply_edge_updates(
            g, inserts=inserts, deletes=deletes, reweights=reweights
        )
        repaired = repair_sssp(g, 0, d0, applied, stepper=stepper)
        oracle = fused_delta_stepping(g, 0, 1.0).distances
        assert np.array_equal(repaired.distances, oracle)

    def test_repair_rejects_resolve_free_stepper(self, diamond_graph):
        g = diamond_graph.copy()
        d0 = fused_delta_stepping(g, 0, 1.0).distances
        applied = apply_edge_updates(g, reweights=[(0, 1, 1.0)])
        with pytest.raises(ValueError, match="resolve"):
            repair_sssp(g, 0, d0, applied, stepper="dijkstra")


class TestStepBench:
    def test_smoke_series_and_render(self):
        from repro.bench.step_bench import (
            render_stepping_portfolio,
            stepping_portfolio_series,
        )
        from repro.bench.workloads import suite_workloads

        rows = stepping_portfolio_series(
            suite_workloads("ci")[:1], steppers=("rho", "delta-star"), repeats=1
        )
        assert len(rows) == 2
        assert sum(1 for r in rows if r["picked"]) == 1
        panel = render_stepping_portfolio(rows)
        assert "Auto-tuner pick vs best measured" in panel

    def test_step_experiment_registered(self):
        from repro.bench.registry import EXPERIMENTS

        assert "STEP" in EXPERIMENTS
        assert "auto-tuner" in EXPERIMENTS["STEP"].claim.lower()
