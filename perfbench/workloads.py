"""The benchmark's workloads: seeded inputs, closed-loop clients and checks.

Every workload is a closed loop with one client: the next operation is
sent only after the previous one returned.  The library is driven only
through its public calls (graph generators, ``repro.stepping.solve_with``,
``QueryService.submit/drain/mutate``); sources, query streams and update
batches are generated here from the seed, never by ``repro.bench``.
Checks run outside the timed region and count into the :class:`Tally`.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.graphs import assign_weights, rmat, road_network
from repro.service import Query, QueryService
from repro.sssp import dijkstra
from repro.stepping import solve_with

from checks import certify, component_of, edge_sources, giant_component
from spans import OP_MUTATE, OP_QUERY, OP_SOLVE

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: solves per run (drawn among the first 64) compared against Dijkstra
ORACLE_SAMPLES = 2
#: a pass stops at this multiple of its measuring time even if unfinished
WALL_FACTOR = 3.0

#: serve-road traffic.  With 512 Zipf(1) hot sources and the service's
#: 128-entry cache about 70% of queries hit, so one query per drain puts
#: the median on the cache path and the 90th percentile on a batch solve.
HOT_SET = 512
ZIPF_S = 1.0
ROUNDS_PER_MUTATION = 64
INSERTS, DELETES, REWEIGHTS = 4, 4, 8
#: share of service answers compared against a certified vector
CHECK_RATE = 1 / 8


class Tally:
    """Operations attempted and failed (raised, or answered wrongly)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(what)


@dataclass
class PassResult:
    """One measured pass: latencies (ms), timed seconds and work counters."""

    op_ms: list[float] = field(default_factory=list)
    mutate_ms: list[float] = field(default_factory=list)
    queries: int = 0
    measured_s: float = 0.0
    ops: int = 0  # solves (solve-*) or cycles of rounds + mutation (serve-road)
    phases: list[int] = field(default_factory=list)
    buckets: list[int] = field(default_factory=list)
    relaxations: int = 0
    updates: int = 0


def streams(seed: int):
    """Independent generators for the operation stream and the check sample."""
    ops, check = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(ops), np.random.default_rng(check)


@dataclass
class State:
    graph: object
    component: np.ndarray
    service: QueryService | None = None


class SolveWorkload:
    """Single-source ``solve_with("delta")`` from sources in the giant component."""

    def __init__(self, build, delta: float | None):
        self.build = build
        self.delta = delta

    def solve(self, graph, source: int):
        if self.delta is None:
            return solve_with("delta", graph, source)
        return solve_with("delta", graph, source, delta=self.delta)

    def setup(self, component=None):
        """Build and warm once; returns ``(state, setup seconds, build seconds)``.

        The component search is the benchmark's own and is not timed.
        """
        t0 = perf_counter()
        graph = self.build()
        build_s = perf_counter() - t0
        if component is None:
            component = giant_component(graph.indptr, graph.indices)
        warm = int(np.flatnonzero(component)[0])
        t0 = perf_counter()
        self.solve(graph, warm)
        return State(graph, component), build_s + perf_counter() - t0, build_s

    def rebuild(self, state: State) -> State:
        return state  # solves leave the graph as it was

    def measure(self, state, seed, seconds, tally, max_ops=None, wrap=None, on_start=None):
        g, component = state.graph, state.component
        ops_rng, check_rng = streams(seed)
        verts = np.flatnonzero(component)
        edge_src = edge_sources(g.indptr)
        oracle_at = set(check_rng.choice(64, ORACLE_SAMPLES, replace=False).tolist())
        solve = self.solve if wrap is None else wrap(self.solve, OP_SOLVE)
        out = PassResult()
        if on_start is not None:
            on_start()
        stop = perf_counter() + WALL_FACTOR * seconds
        while (out.measured_s < seconds if max_ops is None else out.ops < max_ops) and perf_counter() < stop:
            s = int(ops_rng.choice(verts))
            index = out.ops
            out.ops += 1
            tally.attempted += 1
            t0 = perf_counter()
            try:
                res = solve(g, s)
            except Exception as exc:
                tally.fail(f"solve from {s} raised {exc!r}")
                continue
            dt = perf_counter() - t0
            out.measured_s += dt
            out.op_ms.append(dt * 1e3)
            out.phases.append(res.phases)
            out.buckets.append(res.buckets_processed)
            out.relaxations += res.relaxations
            out.updates += res.updates
            problem = certify(g, res.distances, s, component, edge_src)
            if problem is None and index in oracle_at:
                if not np.array_equal(dijkstra(g, s).distances, res.distances):
                    problem = "differs from repro.sssp.dijkstra"
            if problem is not None:
                tally.fail(f"solve from {s}: {problem}")
        return out


class ServeStream:
    """Seeded traffic: Zipf point queries over a hot set, and update batches."""

    def __init__(self, rng, component: np.ndarray, cols: int):
        self.rng = rng
        self.cols = cols
        self.verts = np.flatnonzero(component)
        self.hot = rng.choice(self.verts, HOT_SET, replace=False)  # index = popularity rank
        weights = 1.0 / np.arange(1, HOT_SET + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights) / weights.sum()

    def query(self) -> Query:
        rank = min(int(np.searchsorted(self.cdf, self.rng.random(), side="right")), HOT_SET - 1)
        return Query(source=int(self.hot[rank]), target=int(self.rng.choice(self.verts)))

    def update_batch(self, graph) -> dict:
        """Deletes and reweights of random edges, and anti-diagonal inserts.

        The road generator adds only main diagonals, so ``(r, c)-(r+1, c-1)``
        is a local shortcut that is new unless an earlier batch inserted it.
        """
        rng, n, cols = self.rng, graph.num_vertices, self.cols
        src, dst = edge_sources(graph.indptr), graph.indices
        fwd = src < dst
        es, ed = src[fwd], dst[fwd]
        pick = rng.choice(len(es), DELETES + REWEIGHTS, replace=False)
        dels, rws = pick[:DELETES], pick[DELETES:]
        u = rng.integers(0, n - cols, 4 * INSERTS)
        u = u[u % cols != 0]
        v = u + cols - 1
        u = u[~np.isin(u * n + v, es * n + ed)]
        _, first = np.unique(u, return_index=True)
        u = u[np.sort(first)][:INSERTS]
        v = u + cols - 1
        return {
            "inserts": (u, v, rng.uniform(1.0, 10.0, len(u))),
            "deletes": (es[dels], ed[dels]),
            "reweights": (es[rws], ed[rws], rng.uniform(1.0, 10.0, REWEIGHTS)),
        }


class ServeWorkload:
    """A default ``QueryService``: point-query rounds with periodic mutations."""

    rows = cols = 100

    def build(self):
        return assign_weights(road_network(self.rows, self.cols), "uniform", 1.0, 10.0)

    def setup(self, component=None):
        t0 = perf_counter()
        graph = self.build()
        build_s = perf_counter() - t0
        if component is None:
            component = giant_component(graph.indptr, graph.indices)
        warm = int(np.flatnonzero(component)[0])
        t0 = perf_counter()
        service = QueryService(graph, weight_mode="uniform")
        service.query(warm, warm)
        return State(graph, component, service), build_s + perf_counter() - t0, build_s

    def rebuild(self, state: State) -> State:
        """A fresh graph and service, so a replay sees the same states."""
        return self.setup(state.component)[0]

    def measure(self, state, seed, seconds, tally, max_ops=None, wrap=None, on_start=None):
        g, svc = state.graph, state.service
        ops_rng, check_rng = streams(seed)
        stream = ServeStream(ops_rng, state.component, self.cols)

        def round_trip(query):
            svc.submit(query)
            return svc.drain()

        query_op, mutate_op = round_trip, svc.mutate
        if wrap is not None:
            query_op, mutate_op = wrap(round_trip, OP_QUERY), wrap(svc.mutate, OP_MUTATE)
        # fill the cache with the hottest sources before timing anything
        for s in stream.hot[: svc.cache.capacity]:
            svc.submit(Query(source=int(s), target=int(s)))
        svc.drain()
        if on_start is not None:
            on_start()
        out = PassResult()
        refs: dict[tuple[int, int], np.ndarray] = {}
        stop = perf_counter() + WALL_FACTOR * seconds
        while (out.measured_s < seconds if max_ops is None else out.ops < max_ops) and perf_counter() < stop:
            out.ops += 1
            for _ in range(ROUNDS_PER_MUTATION):
                query = stream.query()
                tally.attempted += 1
                t0 = perf_counter()
                try:
                    responses = query_op(query)
                except Exception as exc:
                    tally.fail(f"query {query.source}->{query.target} raised {exc!r}")
                    continue
                dt = perf_counter() - t0
                out.measured_s += dt
                out.op_ms.append(dt * 1e3)
                out.queries += len(responses)
                if check_rng.random() < CHECK_RATE:
                    problem = self.check_answer(g, query, responses, refs)
                    if problem is not None:
                        tally.fail(f"query {query.source}->{query.target}: {problem}")
            batch = stream.update_batch(g)
            tally.attempted += 1
            t0 = perf_counter()
            try:
                mutate_op(**batch)
            except Exception as exc:
                tally.fail(f"mutation raised {exc!r}")
                continue
            dt = perf_counter() - t0
            out.measured_s += dt
            out.mutate_ms.append(dt * 1e3)
        return out

    @staticmethod
    def check_answer(graph, query, responses, refs) -> str | None:
        """Compare one answer with a certified vector for the current epoch."""
        if len(responses) != 1:
            return f"{len(responses)} responses to one query"
        r = responses[0]
        if not r.exact:
            return "approximate answer from a service with no landmarks"
        key = (graph.epoch, query.source)
        ref = refs.get(key)
        if ref is None:
            for stale in [k for k in refs if k[0] != graph.epoch]:
                del refs[stale]  # older epochs are never asked again
            ref = dijkstra(graph, query.source).distances
            reach = component_of(graph.indptr, graph.indices, query.source)
            problem = certify(graph, ref, query.source, reach, edge_sources(graph.indptr))
            if problem is not None:
                return f"reference vector fails its certificate: {problem}"
            refs[key] = ref
        if r.distance != ref[query.target]:
            return f"distance {r.distance!r} != {ref[query.target]!r}"
        return None


WORKLOADS = {
    "solve-road": SolveWorkload(
        lambda: assign_weights(road_network(300, 300), "uniform", 1.0, 10.0), delta=None
    ),
    "solve-rmat": SolveWorkload(lambda: rmat(17), delta=1.0),
    "serve-road": ServeWorkload(),
}


def setups(workload):
    """Run :data:`SETUP_REPEATS` set-ups: ``(last state, median set-up s, median build s)``."""
    state, setup_s, build_s = None, [], []
    for _ in range(SETUP_REPEATS):
        component = state.component if state is not None else None
        state = None  # free the previous graph before building the next
        gc.collect()
        state, total, build = workload.setup(component)
        setup_s.append(total)
        build_s.append(build)
    return state, statistics.median(setup_s), statistics.median(build_s)
