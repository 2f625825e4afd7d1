"""Unit tests for the benchmark harness (timing, workloads, figures,
reporting, registry) on miniature inputs."""

import numpy as np
import pytest

from repro.bench.figures import fig3_series, fig4_series, render_fig3, render_fig4, render_sec6c, sec6c_profile
from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.bench.reporting import ascii_bar_chart, format_table, geometric_mean
from repro.bench.timing import time_callable
from repro.bench.workloads import suite_workloads, workload_for


@pytest.fixture(scope="module")
def tiny_workloads():
    return [workload_for("ci-ws"), workload_for("ci-road")]


class TestTiming:
    def test_basic_measurement(self):
        stats = time_callable(lambda: sum(range(1000)), repeats=3, warmup=1)
        assert stats.best > 0
        assert stats.repeats == 3
        assert stats.best <= stats.median <= max(stats.best, stats.mean) * 10

    def test_min_total_extends_repeats(self):
        stats = time_callable(lambda: None, repeats=1, min_total_seconds=0.01)
        assert stats.repeats > 1

    def test_ms_properties(self):
        stats = time_callable(lambda: None, repeats=2)
        assert np.isclose(stats.best_ms, stats.best * 1e3)


class TestColdSplit:
    """Races against a per-call-split baseline time a real fused split."""

    def test_every_call_builds(self, split_builds):
        from repro.bench.timing import cold_split
        from repro.sssp.fused import fused_delta_stepping

        wl = workload_for("ci-ws")
        solve = cold_split(wl.graph, lambda: fused_delta_stepping(wl.graph, wl.source, wl.delta))
        for _ in range(3):
            solve()
        assert len(split_builds) == 3

    def test_fig3_fused_series_builds_per_timed_call(self, split_builds):
        fig3_series([workload_for("ci-ws")], repeats=2, verify=False)
        assert len(split_builds) == 3  # one warmup + two timed calls

    def test_kernel_rows_build_per_call(self, split_builds):
        from repro.bench.kernel_bench import _variants

        variants = _variants(workload_for("ci-ws"))
        for name in ("argsort", "scatter", "auto"):
            variants[name]()
            variants[name]()
        assert len(split_builds) == 6


class TestWorkloads:
    def test_source_in_largest_component(self):
        wl = workload_for("ci-rmat")  # has many components
        from repro.graphs.stats import connected_components

        labels = connected_components(wl.graph)
        largest = np.bincount(labels).argmax()
        assert labels[wl.source] == largest

    def test_suite_ascending(self):
        wls = suite_workloads("ci")
        sizes = [w.num_vertices for w in wls]
        assert sizes == sorted(sizes)

    def test_paper_configuration(self):
        wl = workload_for("ci-ws")
        assert wl.delta == 1.0
        assert wl.graph.has_unit_weights()


class TestFigureSeries:
    def test_fig3_rows(self, tiny_workloads):
        rows = fig3_series(tiny_workloads, repeats=1, verify=True)
        assert len(rows) == 2
        for row in rows:
            assert row["unfused_ms"] > 0
            assert row["fused_ms"] > 0
            assert row["speedup"] > 1.0  # fusion always wins here

    def test_fig4_simulated_rows(self, tiny_workloads):
        rows = fig4_series(tiny_workloads, threads=(2,), simulate=True)
        assert all("speedup_2t" in r for r in rows)
        assert all(r["speedup_2t"] > 0 for r in rows)

    def test_sec6c_rows(self, tiny_workloads):
        rows = sec6c_profile(tiny_workloads)
        for row in rows:
            pct_total = sum(v for k, v in row.items() if k.endswith("_pct"))
            assert np.isclose(pct_total, 100.0, atol=0.5)

    def test_renderers_mention_paper_numbers(self, tiny_workloads):
        rows = fig3_series(tiny_workloads, repeats=1, verify=False)
        text = render_fig3(rows)
        assert "3.7x" in text
        rows4 = fig4_series(tiny_workloads, threads=(2, 4), simulate=True)
        text4 = render_fig4(rows4, simulate=True)
        assert "1.44x" in text4
        rows6 = sec6c_profile(tiny_workloads)
        assert "35-40%" in render_sec6c(rows6)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_ascii_chart_log_scale(self):
        text = ascii_bar_chart(["g1", "g2"], {"s": [1.0, 1000.0]}, log_scale=True)
        assert "#" in text
        assert "1e+03" in text or "1000" in text

    def test_ascii_chart_empty(self):
        assert ascii_bar_chart([], {"s": []}) == "(no data)"

    def test_geometric_mean(self):
        assert np.isclose(geometric_mean([2.0, 8.0]), 4.0)
        assert geometric_mean([]) == 0.0


class TestShardBench:
    def test_series_and_render(self, tiny_workloads):
        from repro.bench.shard_bench import (
            render_sharded_scaling,
            sharded_scaling_series,
        )

        rows = sharded_scaling_series(
            tiny_workloads[:1], shard_counts=(2,), partitioners=("contiguous",),
            transport="inline", repeats=1,
        )
        assert len(rows) == 2  # sequential baseline + one configuration
        base, config = rows
        assert base["shards"] == 1 and base["speedup"] == 1.0
        assert config["shards"] == 2
        assert config["verified"] == "ok"
        assert config["entries"] >= 0 and config["kb"] >= 0
        text = render_sharded_scaling(rows)
        assert "SHARD" in text
        assert "PASS" in text
        assert "exchanged" in text

    def test_rejects_empty_shard_counts(self, tiny_workloads):
        from repro.bench.shard_bench import sharded_scaling_series

        with pytest.raises(ValueError):
            sharded_scaling_series(tiny_workloads[:1], shard_counts=())


class TestKernelBench:
    def test_series_render_and_headline(self, tiny_workloads):
        from repro.bench.kernel_bench import (
            kernel_bench_headline,
            kernel_bench_series,
            render_kernel_bench,
        )

        rows = kernel_bench_series(tiny_workloads[:1], repeats=1)
        variants = {r["variant"] for r in rows}
        assert {"seed", "argsort", "scatter", "auto"} <= variants
        assert all(r["verified"] == "ok" for r in rows)
        head = kernel_bench_headline(rows)
        assert head["all_verified"] is True
        assert head["best_speedup"] > 0
        text = render_kernel_bench(rows)
        assert "KERNEL" in text
        assert "seed" in text

    def test_seed_baseline_matches_dijkstra(self, tiny_workloads):
        from repro.bench.kernel_bench import seed_fused_delta_stepping
        from repro.sssp.reference import dijkstra

        wl = tiny_workloads[0]
        r = seed_fused_delta_stepping(wl.graph, wl.source, wl.delta)
        assert np.array_equal(r.distances, dijkstra(wl.graph, wl.source).distances)


class TestBenchJsonWriter:
    def test_write_and_path_env_override(self, tmp_path, monkeypatch):
        from repro.bench.registry import bench_json_path, write_bench_json

        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        rows = [{"graph": "g", "ms": np.float64(1.5), "n": np.int64(3),
                 "ok": np.bool_(True)}]
        path = write_bench_json("STEP", rows, headline={"passed": True})
        assert path == bench_json_path("STEP")
        assert path.parent == tmp_path
        import json

        payload = json.loads(path.read_text())
        assert payload["experiment"] == "STEP"
        assert payload["claim"]  # provenance from the registry
        assert payload["rows"][0] == {"graph": "g", "ms": 1.5, "n": 3, "ok": True}
        assert payload["headline"] == {"passed": True}

    def test_explicit_directory_wins(self, tmp_path):
        from repro.bench.registry import write_bench_json

        path = write_bench_json("KERNEL", [], directory=tmp_path)
        assert path.parent == tmp_path


class TestRegistry:
    def test_all_experiments_present(self):
        assert {"FIG3", "FIG4", "SEC6C", "SERVE", "DYN", "STEP", "SHARD", "KERNEL"} <= set(EXPERIMENTS)

    def test_experiments_have_claims(self):
        for exp in EXPERIMENTS.values():
            assert exp.claim
            assert exp.paper_artifact

    def test_run_experiment_fig3(self):
        text = run_experiment("FIG3", suite="ci", repeats=1, verify=False)
        assert "Fig. 3" in text

    def test_run_experiment_unknown(self):
        with pytest.raises(KeyError):
            run_experiment("FIG99")

    def test_dyn_batch_builder_bounded_on_dense_graph(self):
        """A graph with no non-edges must not hang the insert sampler."""
        from repro.bench.mutate_bench import build_update_batch
        from repro.graphs import generators as gen

        rng = np.random.default_rng(0)
        inserts, deletes, reweights = build_update_batch(
            gen.complete_graph(10), 0.2, rng
        )
        assert len(inserts[0]) == 0  # gave up cleanly
        assert len(reweights[0]) > 0
