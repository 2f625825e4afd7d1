"""Self-tests of the benchmark: its checks count wrong and raised operations.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.graphs import assign_weights, grid_2d  # noqa: E402
from repro.sssp import dijkstra  # noqa: E402


def small_graph():
    return assign_weights(grid_2d(12, 12), "uniform", 1.0, 10.0)


class TinySolve(workloads.SolveWorkload):
    def __init__(self):
        super().__init__(small_graph, delta=None)


class TinyServe(workloads.ServeWorkload):
    rows = cols = 30


def test_certificate_accepts_exact_and_rejects_corrupted():
    g = small_graph()
    comp = checks.giant_component(g.indptr, g.indices)
    src = checks.edge_sources(g.indptr)
    d = dijkstra(g, 5).distances
    assert checks.certify(g, d, 5, comp, src) is None
    for v, delta in ((17, +1.0), (17, -0.5), (5, +1.0)):
        bad = d.copy()
        bad[v] += delta
        assert checks.certify(g, bad, 5, comp, src) is not None
    unreached = d.copy()
    unreached[40] = np.inf
    assert checks.certify(g, unreached, 5, comp, src) is not None


def test_component_of_splits_disconnected_parts():
    from repro.dynamic import apply_edge_updates

    g = grid_2d(1, 6)  # a path 0-1-2-3-4-5
    apply_edge_updates(g, deletes=([2], [3]))
    assert checks.component_of(g.indptr, g.indices, 0).tolist() == [True] * 3 + [False] * 3


@pytest.fixture
def solve_state():
    wl = TinySolve()
    state, setup_s, build_s = wl.setup()
    assert setup_s >= build_s > 0
    return wl, state


def test_solve_pass_is_clean(solve_state):
    wl, state = solve_state
    tally = workloads.Tally()
    out = wl.measure(state, seed=3, seconds=60, tally=tally, max_ops=8)
    assert (tally.attempted, tally.failed, out.ops, len(out.op_ms)) == (8, 0, 8, 8)


def test_solve_pass_counts_corrupted_distances(solve_state):
    wl, state = solve_state
    real = wl.solve

    def corrupt(graph, source):
        res = real(graph, source)
        far = int(np.argmax(res.distances))
        res.distances[far] += 1.0
        return res

    wl.solve = corrupt
    tally = workloads.Tally()
    wl.measure(state, seed=3, seconds=60, tally=tally, max_ops=6)
    assert (tally.attempted, tally.failed) == (6, 6)


def test_solve_pass_counts_exceptions(solve_state):
    wl, state = solve_state

    def boom(graph, source):
        raise RuntimeError("solver down")

    wl.solve = boom
    tally = workloads.Tally()
    out = wl.measure(state, seed=3, seconds=60, tally=tally, max_ops=4)
    assert (tally.attempted, tally.failed, len(out.op_ms)) == (4, 4, 0)
    assert "solver down" in tally.notes[0]


def test_serve_pass_counts_wrong_answers_and_failed_mutations(monkeypatch):
    wl = TinyServe()
    clean = workloads.Tally()
    state = wl.setup()[0]
    out = wl.measure(state, seed=2, seconds=60, tally=clean, max_ops=1)
    assert clean.failed == 0, clean.notes
    assert clean.attempted == workloads.ROUNDS_PER_MUTATION + 1
    assert out.queries == workloads.ROUNDS_PER_MUTATION and len(out.mutate_ms) == 1

    monkeypatch.setattr(workloads, "CHECK_RATE", 1.0)
    state = wl.setup()[0]
    svc = state.service
    drain = svc.drain

    def wrong_drain():
        from dataclasses import replace

        return [replace(r, distance=r.distance + 1.0) for r in drain()]

    def failing_mutate(**batch):
        raise RuntimeError("mutation refused")

    svc.drain = wrong_drain
    svc.mutate = failing_mutate
    tally = workloads.Tally()
    wl.measure(state, seed=2, seconds=60, tally=tally, max_ops=1)
    assert tally.attempted == workloads.ROUNDS_PER_MUTATION + 1
    assert tally.failed == workloads.ROUNDS_PER_MUTATION + 1


def test_update_batches_are_valid_and_seeded():
    wl = TinyServe()
    state = wl.setup()[0]
    a = workloads.ServeStream(workloads.streams(9)[0], state.component, wl.cols)
    b = workloads.ServeStream(workloads.streams(9)[0], state.component, wl.cols)
    ba, bb = a.update_batch(state.graph), b.update_batch(state.graph)
    for kind in ("inserts", "deletes", "reweights"):
        for x, y in zip(ba[kind], bb[kind]):
            np.testing.assert_array_equal(x, y)
    report = state.service.mutate(**ba)
    assert report.applied.num_updates == 2 * (len(ba["inserts"][0]) + workloads.DELETES + workloads.REWEIGHTS)


def test_spans_install_and_uninstall_restore_the_library():
    import repro.sssp.fused as fused
    from repro.kernels import BucketQueue

    before = (fused.gather_candidates, BucketQueue.__dict__["push"])
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert fused.gather_candidates is not before[0]
        wl, g = TinySolve(), small_graph()
        solve = rec.wrap(wl.solve, spans.OP_SOLVE)
        res = solve(g, 0)
    finally:
        rec.uninstall()
    assert (fused.gather_candidates, BucketQueue.__dict__["push"]) == before
    names = [rec.names[s[0]] for s in rec.spans]
    assert names[0] == spans.OP_SOLVE and names.count("kernels.gather") >= res.phases
    assert all(s[1] == 0 for s in rec.spans[1:] if rec.names[s[0]] == "kernels.gather")
    layers = spans.layer_metrics(rec, g.num_vertices)
    assert 0 < layers["trace.attributed_share"] <= 1
    assert layers["service.batch_ms"] == 0 and layers["dynamic.repairs"] == 0


def test_wave_fit_recovers_slope_and_intercept():
    rec = spans.SpanRecorder()
    op, gather = rec.name_id(spans.OP_SOLVE), rec.name_id("kernels.gather")
    bq = rec.name_id("kernels.bucketq")
    rec.spans.append(None)
    t, rows = 0, []
    for size in (10, 200, 50, 400):
        wave = 30_000 + 20 * size  # 30 µs fixed, 20 ns per candidate
        rows.append((gather, 0, t, t + 1000, size))
        rows.append((bq, 0, t + 2000, t + 2500, None))  # excluded from the wave
        t += wave + 500
    rec.spans[0] = (op, -1, 0, t, None)
    rec.spans.extend(rows)
    slope, fixed_us, waves = spans.wave_fit(rec)
    assert waves == 4
    assert slope == pytest.approx(20.0) and fixed_us == pytest.approx(30.0)


def test_run_refuses_without_library_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "solve-road", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_runs_report_exactly_the_metrics_benchmark_json_names(solve_state):
    wl, state = solve_state
    names = {kind: {m["name"] for m in run.spec()[kind]} for kind in ("end_to_end", "per_layer")}
    tally = workloads.Tally()
    out = wl.measure(state, seed=4, seconds=60, tally=tally, max_ops=3)
    values, lines = run.end_to_end("solve-road", 0.5, out, tally)
    assert set(values) == names["end_to_end"] and all(v > 0 for v in values.values())
    assert any(line.startswith("error_rate") for line in lines)
    _, layers = run.traced(wl, state, 0.01, seed=4, seconds=0.2, tally=tally)
    assert set(layers) == names["per_layer"]
    assert layers["sssp.phases"] > 0 and layers["trace.overhead"] > 0
    assert tally.failed == 0
