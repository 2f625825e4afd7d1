"""The repo benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-road --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` measures half the time untraced, replays the same operations
with every layer wrapped (see ``spans.py``), writes the spans and the
per-layer table under ``perfbench/out/<workload>/`` and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

import numpy as np

from spans import SpanRecorder, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def spec() -> dict:
    """``BENCHMARK.json``: the metric names and units every run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else float("nan")


def provenance(workload: str, seed: int, state) -> str:
    g = state.graph
    return (
        f"# workload={workload} seed={seed} graph={g.name} n={g.num_vertices} m={g.num_edges} "
        f"cpus={os.cpu_count()} python={platform.python_version()} numpy={np.__version__}"
    )


def end_to_end(name, setup_s, out, tally):
    """The JSON metrics plus the human lines under the names the docs use."""
    is_serve = name == "serve-road"
    p50, p90 = percentile(out.op_ms, 50), percentile(out.op_ms, 90)
    done = out.queries if is_serve else len(out.op_ms)
    rate = done / out.measured_s if out.measured_s else 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "ops_per_s": rate,
    }
    lat = "query_ms" if is_serve else "solve_ms"
    lines = [
        f"setup_s          {setup_s:12.4f} s",
        f"peak_rss_mb      {rss_mb:12.1f} MB",
        f"error_rate       {tally.failed / max(tally.attempted, 1):12.4f}    ({tally.failed}/{tally.attempted})",
        f"{lat}.p50     {p50:12.4f} ms  (n={len(out.op_ms)})",
        f"{lat}.p90     {p90:12.4f} ms  (n={len(out.op_ms)})",
    ]
    if is_serve:
        lines += [
            f"qps              {rate:12.2f} 1/s (queries over {out.measured_s:.2f} s, mutations included)",
            f"mutate_ms.p50    {percentile(out.mutate_ms, 50):12.2f} ms  (n={len(out.mutate_ms)})",
        ]
    else:
        lines.append(f"solves_per_s     {rate:12.3f} 1/s")
    return metrics, lines


def traced(wl, state, build_s, seed, seconds, tally):
    """Untraced pass, then the same operations replayed under the span wrappers."""
    plain = wl.measure(state, seed, seconds / 2, tally)
    rec = SpanRecorder()
    rec.install()
    try:
        replay_state = wl.rebuild(state)
        out = wl.measure(
            replay_state, seed, seconds, tally, max_ops=plain.ops, wrap=rec.wrap, on_start=rec.clear
        )
    finally:
        rec.uninstall()
    g = replay_state.graph
    layers = {"graphs.build_s": build_s}
    layers.update(layer_metrics(rec, g.num_vertices))
    solves = len(out.phases)
    layers.update({
        "sssp.phases": float(np.mean(out.phases)) if solves else 0.0,
        "sssp.buckets": float(np.mean(out.buckets)) if solves else 0.0,
        "sssp.relax_per_m": out.relaxations / solves / g.num_edges if solves else 0.0,
        "sssp.update_ratio": out.updates / out.relaxations if out.relaxations else 0.0,
        "trace.overhead": out.measured_s / plain.measured_s if plain.measured_s else 0.0,
    })
    return rec, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Tally, setups

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        state, _, build_s = setups(wl)
        rec, layers = traced(wl, state, build_s, args.seed, args.seconds, tally)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec()["per_layer"]}
        table = [provenance(args.workload, args.seed, state)]
        table += [f"{k:30s} {m['value']:14.6g} {m['unit']}" for k, m in metrics.items()]
        out_dir = os.path.join(HERE, "out", args.workload)
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, "spans.json.gz"))
        with open(os.path.join(out_dir, "layers.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(table) + "\n")
        lines = table
    else:
        state, setup_s, _ = setups(wl)
        out = wl.measure(state, args.seed, args.seconds, tally)
        values, lines = end_to_end(args.workload, setup_s, out, tally)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec()["end_to_end"]}
        lines.insert(0, provenance(args.workload, args.seed, state))
    for note in tally.notes:
        lines.append(f"# failure: {note}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
