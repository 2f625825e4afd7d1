"""Layer spans recorded from outside the library.

:func:`install` replaces each layer's public function with a timing
wrapper *at the name its caller resolves* (``repro.sssp.fused`` imports
``gather_candidates`` into its own namespace, so that is where the
wrapper goes) and :func:`uninstall` puts the originals back.  Spans live
in memory as ``(name id, parent index, start ns, end ns, info)`` rows and
are written out once at the end; :func:`layer_metrics` derives the
per-layer numbers from them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from time import perf_counter_ns

import numpy as np

#: span names of the benchmark's own root operations
OP_SOLVE, OP_QUERY, OP_MUTATE = "op:solve", "op:query", "op:mutate"


def _wave_size(out):
    return 0 if out[0] is None else len(out[0])


def _batch_info(res):
    return (len(res.sources), res.phases)


def _plan_info(plan):
    return (len(plan.cached), plan.num_exact_sources)


def _repair_info(res):
    return res.affected


#: (owner, attribute, span name, info extractor).  The owner is the module
#: (or class) whose namespace the caller looks the name up in.
LAYERS = [
    ("repro.sssp.fused", "split_csr_light_heavy", "sssp.split", None),
    ("repro.sssp.fused", "gather_candidates", "kernels.gather", _wave_size),
    ("repro.sssp.fused", "min_by_target", "kernels.min", None),
    ("repro.kernels.bucketq:BucketQueue", "push", "kernels.bucketq", None),
    ("repro.kernels.bucketq:BucketQueue", "push_into", "kernels.bucketq", None),
    ("repro.kernels.bucketq:BucketQueue", "pop_bucket", "kernels.bucketq", None),
    ("repro.service.planner:QueryPlanner", "plan", "service.plan", _plan_info),
    # the service binds its solver at construction: install before building one
    ("repro.service.server", "batch_delta_stepping", "service.batch", _batch_info),
    ("repro.service.batch", "split_csr_light_heavy", "sssp.split", None),
    ("repro.service.batch", "min_by_target", "kernels.min", None),
    ("repro.service.server", "apply_edge_updates", "dynamic.apply", None),
    ("repro.service.server", "repair_sssp", "dynamic.repair", _repair_info),
    ("repro.dynamic.incremental", "split_csr_light_heavy", "sssp.split", None),
    ("repro.dynamic.incremental", "gather_candidates", "kernels.gather", _wave_size),
    ("repro.dynamic.incremental", "min_by_target", "kernels.min", None),
]


class SpanRecorder:
    """In-memory span log; each span knows the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._installed: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, info=None):
        """*fn* recording one span per call; *info* maps its return value."""
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1, info(out) if info and out is not None else None)

        return traced

    def install(self, layers=LAYERS) -> None:
        for owner_path, attr, name, info in layers:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, info))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()

    def arrays(self):
        """Columns ``(name id, parent, start, end)`` as int64 arrays (all spans closed)."""
        rows = [s[:4] for s in self.spans]
        if not rows:
            return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
        a = np.asarray(rows, dtype=np.int64)
        return a[:, 0], a[:, 1], a[:, 2], a[:, 3]

    def write(self, path: str) -> None:
        """Write every span as one gzip'd JSON document."""
        doc = {
            "columns": ["name", "parent", "start_ns", "end_ns", "info"],
            "names": self.names,
            "spans": [list(s) for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def wave_fit(rec: SpanRecorder, parents: tuple[str, ...] = (OP_SOLVE,)):
    """Least-squares fit of relax-wave time against candidate count.

    A wave runs from one ``kernels.gather`` start to the next gather (or
    the end of its parent span), less the bucket-queue and split spans
    inside it.  Returns ``(ns per candidate, fixed µs per wave, waves)``;
    ``(0, 0, 0)`` when fewer than two waves were traced.
    """
    name_of = {n: i for i, n in enumerate(rec.names)}
    gather = name_of.get("kernels.gather", -1)
    skip = [name_of[n] for n in ("kernels.bucketq", "sssp.split") if n in name_of]
    parent_ids = {name_of[p] for p in parents if p in name_of}
    xs, ys = [], []
    children: dict[int, list[int]] = {}
    for i, s in enumerate(rec.spans):
        if s[1] >= 0:
            children.setdefault(s[1], []).append(i)
    for p, kids in children.items():
        ps = rec.spans[p]
        if ps[0] not in parent_ids:
            continue
        waves = [k for k in kids if rec.spans[k][0] == gather]
        bounds = [rec.spans[k][2] for k in waves[1:]] + [ps[3]]
        w = 0
        for k in kids:
            nid, _, t0, t1, _ = rec.spans[k]
            if w < len(waves) and k == waves[w]:
                xs.append(rec.spans[k][4] or 0)
                ys.append(bounds[w] - t0)
                w += 1
            elif w and nid in skip:
                ys[-1] -= t1 - t0
    if len(xs) < 2 or len(set(xs)) < 2:
        return 0.0, 0.0, len(xs)
    slope, intercept = np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)
    return float(slope), float(intercept) / 1e3, len(xs)


def layer_metrics(rec: SpanRecorder, n_vertices: int) -> dict[str, float]:
    """Per-layer numbers from the spans under the benchmark's root operations.

    ``*_ms`` layer totals are self time per root operation; ``service.*``
    and ``dynamic.*`` per-call figures are per call of that layer.
    """
    nid, parent, t0, t1 = rec.arrays()
    dur = (t1 - t0).astype(np.float64) / 1e6  # ms
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_ms = dur - covered
    infos = [s[4] for s in rec.spans]
    name_of = {n: i for i, n in enumerate(rec.names)}

    def sel(name):
        return nid == name_of.get(name, -1)

    roots = (parent < 0) & (sel(OP_SOLVE) | sel(OP_QUERY) | sel(OP_MUTATE))
    op_ms = float(dur[roots].sum())
    n_ops = int(roots.sum())

    def per_op(name):
        return float(self_ms[sel(name)].sum()) / n_ops if n_ops else 0.0

    def mean(x):
        return float(np.mean(x)) if len(x) else 0.0

    solves = sel(OP_SOLVE)
    queries = sel(OP_QUERY)
    mutations = sel(OP_MUTATE)
    batches = [infos[i] for i in np.flatnonzero(sel("service.batch"))]
    plans = [infos[i] for i in np.flatnonzero(sel("service.plan"))]
    repairs = sel("dynamic.repair")
    affected = [infos[i] for i in np.flatnonzero(repairs)]
    batch_k = sum(b[0] for b in batches)
    hits, misses = sum(p[0] for p in plans), sum(p[1] for p in plans)
    n_mut = int(mutations.sum())
    edge_ns, fixed_us, _ = wave_fit(rec)
    return {
        "sssp.split_ms": per_op("sssp.split"),
        "sssp.split_share": float(self_ms[sel("sssp.split")].sum()) / op_ms if op_ms else 0.0,
        "sssp.loop_ms": mean(self_ms[solves]),
        "kernels.gather_ms": per_op("kernels.gather"),
        "kernels.min_ms": per_op("kernels.min"),
        "kernels.bucketq_ms": per_op("kernels.bucketq"),
        "kernels.edge_ns": edge_ns,
        "kernels.wave_fixed_us": fixed_us,
        "service.batch_ms": mean(dur[sel("service.batch")]),
        "service.batch_k": batch_k / len(batches) if batches else 0.0,
        "service.batch_ms_per_source": float(dur[sel("service.batch")].sum()) / batch_k if batch_k else 0.0,
        "service.batch_phases": mean([b[1] for b in batches]),
        "service.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "service.plan_ms": mean(dur[sel("service.plan")]),
        "service.drain_self_ms": mean(self_ms[queries]),
        "dynamic.apply_ms": mean(dur[sel("dynamic.apply")]),
        "dynamic.repair_ms": float(dur[repairs].sum()) / n_mut if n_mut else 0.0,
        "dynamic.repairs": int(repairs.sum()) / n_mut if n_mut else 0.0,
        "dynamic.repair_ms_per_entry": mean(dur[repairs]),
        "dynamic.affected_frac": mean(affected) / n_vertices if affected else 0.0,
        "trace.attributed_share": float(covered[roots].sum()) / op_ms if op_ms else 0.0,
    }
