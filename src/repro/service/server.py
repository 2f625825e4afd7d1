"""The synchronous query service: queue → coalesce → batch-solve → respond.

:class:`QueryService` is the front door of the subsystem.  Callers
``submit`` point or one-to-many queries; ``drain`` executes one planning
round — cache probes, batched exact solves (:mod:`repro.service.batch`),
landmark fallbacks (:mod:`repro.service.landmarks`) — and returns every
response in submission order.  ``query`` wraps submit+drain for the
interactive one-off case.

Graphs served here are *mutable*: :meth:`QueryService.mutate` applies an
edge-update batch through :mod:`repro.dynamic`, repairs the hot cached
distance vectors incrementally (no cold recompute), marks the landmark
index stale for lazy rebuild, and resets the planner's cost model.  The
cache keys on ``graph.epoch``, so anything not repaired simply misses.

The service keeps per-query latency samples and exposes throughput
percentiles (p50/p90/p99), which the ``serve-bench`` CLI command and the
SERVE experiment report.  Everything is synchronous and single-threaded
by design: sharding and async dispatch layer on top of exactly this
surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

# repair_sssp stays bound here: perfbench's traced run wraps it by this name
from ..dynamic.incremental import repair_many, repair_sssp  # noqa: F401
from ..dynamic.mutations import AppliedUpdates, apply_edge_updates
from ..faults.breaker import (
    BREAKER_STATE_CODES,
    CircuitBreaker,
    CircuitOpenError,
    MutationShedError,
)
from ..graphs.graph import Graph
from ..obs.flight import FlightRecorder, SlowQueryLog
from ..sssp.delta import choose_delta
from .batch import batch_delta_stepping
from .cache import CacheStats, DistanceCache
from .landmarks import LandmarkIndex
from .planner import Query, QueryPlan, QueryPlanner

__all__ = ["QueryResponse", "MutationReport", "ServiceStats", "QueryService", "REPAIR_GROUP_ROWS"]

#: cached entries repaired per :func:`repro.dynamic.repair_many` call.
#: Rows of one call share every relaxation wave, but its state is one
#: distance vector per row; a single call over a full 128-entry cache on
#: a 10k-vertex road mesh measured +11% peak RSS, and 16-row groups keep
#: most of the wave saving.
REPAIR_GROUP_ROWS = 16


def _drop_derived_caches(graph: Graph) -> None:
    """Delete every ``_``-prefixed derived cache from ``graph.meta``."""
    for key in [k for k in graph.meta if isinstance(k, str) and k.startswith("_")]:
        del graph.meta[key]


@dataclass(frozen=True)
class QueryResponse:
    """The answer to one :class:`~repro.service.planner.Query`.

    ``distance`` is filled for point queries, ``distances`` (full vector)
    for one-to-many.  ``exact`` is False only for landmark estimates, in
    which case ``distance`` carries the admissible upper bound and
    ``bounds`` the full interval.  ``degraded`` marks the subset of
    approximate answers that the circuit breaker forced (the planner
    wanted an exact solve, but the solver is failing); ``deadline_missed``
    marks answers delivered after the query's latency deadline.
    """

    query: Query
    distance: float | None = None
    distances: np.ndarray | None = None
    exact: bool = True
    from_cache: bool = False
    latency_ms: float = 0.0
    bounds: tuple[float, float] | None = None
    degraded: bool = False
    deadline_missed: bool = False


@dataclass(frozen=True)
class MutationReport:
    """What one :meth:`QueryService.mutate` call did.

    ``repaired_entries`` cached distance vectors were patched in place by
    the incremental kernel and live on under the new epoch;
    ``dropped_entries`` (other weight modes, or ``repair="drop"``) were
    discarded and will re-solve on next miss.
    """

    applied: AppliedUpdates
    repaired_entries: int
    dropped_entries: int
    epoch: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutationReport<{self.applied.num_updates} updates, "
            f"repaired={self.repaired_entries}, dropped={self.dropped_entries}, "
            f"epoch={self.epoch}>"
        )


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate service counters + latency percentiles."""

    queries_served: int
    exact_answers: int
    approximate_answers: int
    batches_solved: int
    sources_solved: int
    cache: CacheStats
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    throughput_qps: float
    mutations_applied: int = 0
    entries_repaired: int = 0
    degraded_answers: int = 0
    deadline_misses: int = 0
    mutations_shed: int = 0
    breaker_state: str = "none"
    breaker_trips: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceStats<{self.queries_served} served, "
            f"p50={self.latency_p50_ms:.2f}ms p99={self.latency_p99_ms:.2f}ms, "
            f"{self.throughput_qps:.0f} qps>"
        )


class QueryService:
    """A synchronous distance-query service over one graph.

    Parameters
    ----------
    graph:
        The served graph.  Mutate it through :meth:`mutate` (which
        repairs cached answers in place); after a *raw* in-place edit
        call :meth:`invalidate` instead.
    weight_mode:
        Cache-key tag for the weight configuration of *graph*.
    delta:
        Δ for the batch engine (``None`` = auto).
    cache:
        A :class:`DistanceCache` (one is created when omitted; pass a
        shared instance to pool across services).
    landmarks:
        Optional :class:`LandmarkIndex` enabling approximate answers.
    planner:
        Optional :class:`QueryPlanner`; defaults to batches of
        *max_batch_size* with *latency_budget_ms*.
    batch_method:
        The :func:`repro.service.batch.batch_delta_stepping` method used
        when the planner stamps no stepper: ``"delta"`` (the shared-wave
        engine) or any other stepper spec.
    stepper:
        Pin exact solves to one stepping-registry algorithm (any name
        accepted by :func:`repro.service.batch.batch_delta_stepping`,
        e.g. ``"rho"``).  Forwarded to the planner.
    autotune:
        Let the stepping auto-tuner pick the exact-solve algorithm per
        graph epoch: the first drain *that needs an exact solve* (and
        the first after each mutation) probes the portfolio once and
        installs the winner on the planner — cache-only drains never pay
        the probe.  A pinned ``stepper`` beats the tuned pick.
    tuner:
        Optional pre-configured :class:`repro.stepping.AutoTuner`
        (implies ``autotune``); pass a shared instance to pool probe
        results across services.
    recorder:
        A truthy :class:`repro.obs.Recorder` traces every drain round
        (``service:drain`` / ``service:plan`` / ``service:batch-solve``
        spans, forwarded into the solves), feeds the per-query and
        mutation latencies into ``service.query_ms`` /
        ``service.mutate_ms`` histograms (``latency-ms`` bucket preset:
        sub-ms resolution), and binds the cache's hit/miss/eviction
        counters to the recorder's metrics registry.  Every drain round
        additionally runs under a ``request_id`` ambient trace context,
        so each span a request produces — plan, batch-solve, and the
        sharded stepper's superstep/shard-step/exchange spans beneath
        them — carries the ids it served and the trace is filterable
        per request.  Recording never changes any answer.
    slow_query_ms:
        Latency threshold for the structured slow-query log: any
        response slower than this produces one
        :class:`repro.obs.SlowQueryLog` entry (request id, plan shape,
        stepper spec, cache verdict, work-counter deltas, and — when the
        recorder's trace is a :class:`repro.obs.FlightRecorder` — a
        flight snapshot of the spans leading up to it).  Requires a
        truthy *recorder*; ``None`` disables the log.
    slow_query_log:
        A pre-built :class:`repro.obs.SlowQueryLog` to append into
        (overrides *slow_query_ms*; pass a shared instance to pool
        across services).
    breaker:
        Optional :class:`repro.faults.CircuitBreaker` guarding the
        exact-solve path.  While open, exact solves for non-cached
        sources degrade to landmark upper bounds (responses carry
        ``degraded=True``) — or raise
        :class:`~repro.faults.CircuitOpenError` when the service has no
        landmark index — and :meth:`mutate` sheds its batch with
        :class:`~repro.faults.MutationShedError` (a failed mid-repair
        mutation while the solver is flaky is worse than a stale epoch).
        Breaker state is surfaced in :meth:`stats` and, with a recorder,
        as the ``service.degraded`` / ``service.breaker_state`` gauges.
    default_deadline_ms:
        Deadline stamped onto queries submitted without
        ``max_latency_ms``.  Deadlines steer the planner toward
        approximate answers and mark late responses
        ``deadline_missed=True`` (counted in :meth:`stats`).
    solver:
        The batch solver callable (defaults to
        :func:`repro.service.batch.batch_delta_stepping`); injectable so
        the chaos harness and tests can make the exact path fail on
        demand.  Same signature and result contract as the default.
    """

    def __init__(
        self,
        graph: Graph,
        weight_mode: str = "unit",
        delta: float | None = None,
        cache: DistanceCache | None = None,
        landmarks: LandmarkIndex | None = None,
        planner: QueryPlanner | None = None,
        max_batch_size: int = 64,
        latency_budget_ms: float | None = None,
        batch_method: str = "delta",
        stepper: str | None = None,
        autotune: bool = False,
        tuner=None,
        recorder=None,
        slow_query_ms: float | None = None,
        slow_query_log: SlowQueryLog | None = None,
        breaker: CircuitBreaker | None = None,
        default_deadline_ms: float | None = None,
        solver=None,
    ):
        self.graph = graph
        self.weight_mode = weight_mode
        self.recorder = recorder if recorder else None
        if self.recorder is not None:
            # pre-declare the latency histograms on the ms-scale preset
            # (first touch fixes the buckets; the coarse geometric
            # default cannot resolve sub-ms cache hits)
            self.recorder.metrics.histogram("service.query_ms", buckets="latency-ms")
            self.recorder.metrics.histogram("service.mutate_ms", buckets="latency-ms")
        if slow_query_log is None and slow_query_ms is not None:
            slow_query_log = SlowQueryLog(slow_query_ms)
        self.slow_query_log = slow_query_log
        self._delta_auto = delta is None
        self.delta = delta if delta is not None else choose_delta(graph)
        if cache is None:
            cache = DistanceCache(
                metrics=self.recorder.metrics if self.recorder is not None else None
            )
        elif self.recorder is not None:
            cache.bind_metrics(self.recorder.metrics)
        self.cache = cache
        self.landmarks = landmarks
        self.planner = planner if planner is not None else QueryPlanner(
            max_batch_size=max_batch_size,
            latency_budget_ms=latency_budget_ms,
            stepper=stepper,
        )
        if planner is not None and stepper is not None:
            self.planner._pinned_stepper = stepper
        if tuner is None and autotune:
            from ..stepping import AutoTuner

            tuner = AutoTuner()
        self.tuner = tuner
        self.batch_method = batch_method
        self.breaker = breaker
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be positive, got {default_deadline_ms}"
            )
        self.default_deadline_ms = default_deadline_ms
        self._solver = solver if solver is not None else batch_delta_stepping
        self._pending: list[Query] = []
        self._request_seq = 0
        self._last_plan: QueryPlan | None = None
        self._latencies_ms: list[float] = []
        self._serving_seconds = 0.0
        self._exact = 0
        self._approximate = 0
        self._batches_solved = 0
        self._sources_solved = 0
        self._mutations = 0
        self._entries_repaired = 0
        self._degraded = 0
        self._deadline_misses = 0
        self._mutations_shed = 0

    # -- request intake ----------------------------------------------------

    def submit(self, query: Query) -> int:
        """Enqueue one query; returns its position in the next drain.

        A query without a ``request_id`` gets one assigned
        (``q-NNNNNN``, service-scoped) — the id the response's ``query``
        carries, the trace spans are tagged with, and the slow-query log
        records.
        """
        n = self.graph.num_vertices
        if not 0 <= query.source < n:
            raise IndexError(f"source {query.source} out of range [0, {n})")
        if query.target is not None and not 0 <= query.target < n:
            raise IndexError(f"target {query.target} out of range [0, {n})")
        if query.request_id is None:
            self._request_seq += 1
            query = replace(query, request_id=f"q-{self._request_seq:06d}")
        if query.max_latency_ms is None and self.default_deadline_ms is not None:
            query = replace(query, max_latency_ms=self.default_deadline_ms)
        self._pending.append(query)
        return len(self._pending) - 1

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    def query(self, source: int, target: int | None = None) -> QueryResponse:
        """Submit one query and drain immediately (the interactive path)."""
        idx = self.submit(Query(source=source, target=target))
        return self.drain()[idx]

    # -- one planning/execution round --------------------------------------

    def drain(self) -> list[QueryResponse]:
        """Execute every pending query; responses in submission order."""
        queries, self._pending = self._pending, []
        if not queries:
            return []
        rec = self.recorder
        if rec is None:
            return self._drain_round(queries)
        # one synchronous round serves every pending request, so the
        # ambient id is the (deduplicated) comma-joined set — a span
        # belongs to a request iff the id appears in its request_id arg
        request_id = ",".join(
            dict.fromkeys(q.request_id for q in queries if q.request_id is not None)
        )
        counters_before = (
            rec.summary()["counters"] if self.slow_query_log is not None else None
        )
        with rec.context(request_id=request_id):
            with rec.span("service:drain", queries=len(queries)) as sp:
                responses = self._drain_round(queries)
                sp.set(exact=sum(1 for r in responses if r.exact))
        for r in responses:
            rec.observe("service.query_ms", r.latency_ms)
        rec.inc("service.queries", len(responses))
        if counters_before is not None:
            self._log_slow(responses, counters_before)
        return responses

    def _log_slow(
        self, responses: list[QueryResponse], counters_before: dict
    ) -> None:
        """Append one slow-query entry per over-threshold response."""
        rec = self.recorder
        log = self.slow_query_log
        if rec is None or log is None:
            return
        slow = [r for r in responses if r.latency_ms > log.threshold_ms]
        if not slow:
            return
        counters_after = rec.summary()["counters"]
        deltas = {
            k: v - counters_before.get(k, 0)
            for k, v in counters_after.items()
            if v != counters_before.get(k, 0)
        }
        plan = self._last_plan
        plan_shape = (
            {
                "cached": len(plan.cached),
                "batches": len(plan.batches),
                "exact_sources": plan.num_exact_sources,
                "approximate": len(plan.approximate),
            }
            if plan is not None
            else {}
        )
        stepper = (plan.stepper if plan is not None else None) or self.batch_method
        trace = rec.trace
        flight = (
            trace.snapshot(last=32) if isinstance(trace, FlightRecorder) else None
        )
        for r in slow:
            entry = {
                "request_id": r.query.request_id,
                "source": int(r.query.source),
                "target": None if r.query.target is None else int(r.query.target),
                "latency_ms": round(r.latency_ms, 3),
                "plan": plan_shape,
                "stepper": str(stepper),
                "cache_hit": bool(r.from_cache),
                "exact": bool(r.exact),
                "counters": deltas,
            }
            if flight is not None:
                entry["flight"] = flight
            log.record(entry)
        rec.inc("service.slow_queries", len(slow))

    def _drain_round(self, queries: list[Query]) -> list[QueryResponse]:
        """One planning/execution round (:meth:`drain` adds the spans)."""
        rec = self.recorder
        t0 = time.perf_counter()
        if rec is not None:
            with rec.span("service:plan", queries=len(queries)) as sp:
                plan = self.planner.plan(
                    queries,
                    cache=self.cache,
                    graph=self.graph,
                    weight_mode=self.weight_mode,
                    has_landmarks=self.landmarks is not None,
                )
                sp.set(
                    batches=len(plan.batches),
                    cached=len(plan.cached),
                    approximate=len(plan.approximate),
                )
        else:
            plan = self.planner.plan(
                queries,
                cache=self.cache,
                graph=self.graph,
                weight_mode=self.weight_mode,
                has_landmarks=self.landmarks is not None,
            )
        self._last_plan = plan
        if self.tuner is not None and plan.batches and plan.stepper is None:
            # tuned routing: probe once per graph epoch (the tuner caches),
            # install the winner; a mutation clears it for re-tuning.  The
            # probe only runs when the plan has exact solves to route —
            # cache-only drains never pay it — and inside the timed round,
            # so its cost shows in the latency stats it affects.
            pick = self.tuner.best_stepper(self.graph)
            self.planner.set_tuned_stepper(pick)
            plan.stepper = pick
        # the plan carries the fetched cache hits (a later eviction — e.g.
        # by this round's own puts into a small shared cache — can't
        # invalidate an answer already in hand)
        cached_set = set(plan.cached)
        solved = dict(plan.cached)
        exact_solved, degraded = self._execute(plan)
        solved.update(exact_solved)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        self._serving_seconds += elapsed_ms / 1e3

        # Synchronous round: every query in it observes the round's latency.
        per_query_ms = elapsed_ms
        approx_set = set(plan.approximate)
        degraded_set = set(degraded)
        responses = []
        deadline_misses = 0
        for q in queries:
            s = int(q.source)
            self._latencies_ms.append(per_query_ms)
            if s in degraded_set and s not in cached_set:
                resp = self._answer_approximate(q, per_query_ms, degraded=True)
            elif s in approx_set:
                resp = self._answer_approximate(q, per_query_ms)
            else:
                resp = self._answer_exact(
                    q, solved[s], from_cache=s in cached_set, latency_ms=per_query_ms
                )
            if q.max_latency_ms is not None and per_query_ms > q.max_latency_ms:
                resp = replace(resp, deadline_missed=True)
                deadline_misses += 1
            responses.append(resp)
        if deadline_misses:
            self._deadline_misses += deadline_misses
            if rec is not None:
                rec.inc("service.deadline_misses", deadline_misses)
        self._update_breaker_gauges()
        return responses

    def _execute(self, plan: QueryPlan) -> tuple[dict[int, np.ndarray], list[int]]:
        """Run the plan's batch solves; returns (source → distances, degraded).

        With a breaker attached, a batch whose solve fails (or arrives
        while the breaker is open) falls back to landmark answers: its
        sources are returned in the *degraded* list instead of being
        solved.  Without landmarks the failure propagates — there is
        nothing to degrade to.
        """
        solved: dict[int, np.ndarray] = {}
        degraded: list[int] = []
        rec = self.recorder
        method = plan.stepper or self.batch_method
        breaker = self.breaker
        for batch in plan.batches:
            if breaker is not None and not breaker.allow():
                if self.landmarks is None:
                    raise CircuitOpenError(
                        "exact solve refused: circuit breaker is open and the "
                        "service has no landmark index to degrade to"
                    )
                degraded.extend(int(s) for s in batch)
                if rec is not None:
                    rec.inc("service.breaker_rejections", len(batch))
                continue
            t0 = time.perf_counter()
            try:
                if rec is not None:
                    with rec.span(
                        "service:batch-solve", batch=len(batch), method=str(method)
                    ):
                        result = self._solver(
                            self.graph, batch, delta=self.delta, method=method,
                            recorder=rec,
                        )
                else:
                    result = self._solver(
                        self.graph, batch, delta=self.delta, method=method
                    )
            except Exception:
                if breaker is None:
                    raise
                breaker.record_failure()
                if rec is not None:
                    rec.inc("service.solver_failures")
                if self.landmarks is None:
                    raise
                degraded.extend(int(s) for s in batch)
                continue
            if breaker is not None:
                breaker.record_success()
            self.planner.record_solve(
                len(batch), (time.perf_counter() - t0) * 1e3
            )
            self._batches_solved += 1
            self._sources_solved += len(batch)
            for k, s in enumerate(batch):
                solved[int(s)] = self.cache.put(
                    self.graph, int(s), self.weight_mode, result.distances[k]
                )
        return solved, degraded

    def _answer_exact(self, q: Query, dist: np.ndarray, from_cache: bool, latency_ms: float) -> QueryResponse:
        self._exact += 1
        if q.target is None:
            return QueryResponse(
                query=q, distances=dist, exact=True,
                from_cache=from_cache, latency_ms=latency_ms,
            )
        return QueryResponse(
            query=q, distance=float(dist[q.target]), exact=True,
            from_cache=from_cache, latency_ms=latency_ms,
        )

    def _answer_approximate(
        self, q: Query, latency_ms: float, degraded: bool = False
    ) -> QueryResponse:
        self._approximate += 1
        if degraded:
            self._degraded += 1
            rec = self.recorder
            if rec is not None:
                rec.inc("service.degraded_answers")
        self.landmarks.ensure_fresh()  # lazy rebuild after mutations
        if q.target is None:
            # one-to-many: upper bounds to every vertex via the landmarks
            ub = np.min(
                self.landmarks.dist_to[:, q.source, None] + self.landmarks.dist_from,
                axis=0,
            )
            ub[q.source] = 0.0
            return QueryResponse(
                query=q, distances=ub, exact=False, latency_ms=latency_ms,
                degraded=degraded,
            )
        est = self.landmarks.estimate(q.source, q.target)
        return QueryResponse(
            query=q, distance=est.upper, exact=False,
            latency_ms=latency_ms, bounds=(est.lower, est.upper),
            degraded=degraded,
        )

    # -- mutation ----------------------------------------------------------

    def mutate(
        self,
        inserts=None,
        deletes=None,
        reweights=None,
        repair: str = "hot",
        strict: bool = True,
    ) -> MutationReport:
        """Apply one edge-update batch to the served graph.

        The service's cached entries are harvested *before* the mutation,
        the batch is applied through
        :func:`repro.dynamic.apply_edge_updates` (bumping the epoch the
        cache keys on), and then — under the default ``repair="hot"``
        policy — every harvested entry of this service's weight mode is
        repaired incrementally and re-inserted under the new epoch, so
        hot sources keep answering from cache with zero recompute.  The
        entries are repaired :data:`REPAIR_GROUP_ROWS` at a time, each
        group in one :func:`repro.dynamic.repair_many` call whose rows
        share every relaxation wave.  ``repair="drop"`` discards them
        instead (they re-solve on next miss).  Entries of *other* weight
        modes are always dropped: their weight arrays no longer describe
        this graph.

        The landmark index (if any) is marked stale and rebuilds lazily
        on the next approximate answer; the planner's calibrated cost
        model resets.  Pending (submitted, undrained) queries are
        answered against the post-mutation graph.

        With an *open* circuit breaker attached, the batch is shed with
        :class:`~repro.faults.MutationShedError` before anything is
        touched: while the solver is failing, a repair that dies
        mid-flight would only widen the blast radius, and the current
        epoch snapshot can still answer.  If a repair *does* fail
        mid-flight, the graph, epoch, Δ, and cache are rolled back to
        the pre-mutation snapshot before the error propagates.
        """
        breaker = self.breaker
        if breaker is not None and not breaker.allow_mutation():
            self._mutations_shed += 1
            shed_rec = self.recorder
            if shed_rec is not None:
                shed_rec.inc("service.mutations_shed")
            raise MutationShedError(
                "mutation shed: circuit breaker is open — the service keeps "
                "answering from the current epoch snapshot; retry after the "
                "breaker closes"
            )
        rec = self.recorder
        if rec is None:
            return self._mutate(inserts, deletes, reweights, repair, strict)
        t0 = time.perf_counter()
        with rec.span("service:mutate") as sp:
            report = self._mutate(inserts, deletes, reweights, repair, strict)
            sp.set(
                updates=report.applied.num_updates,
                repaired=report.repaired_entries,
                epoch=report.epoch,
            )
        rec.observe("service.mutate_ms", (time.perf_counter() - t0) * 1e3)
        rec.inc("service.mutations")
        return report

    def _mutate(self, inserts, deletes, reweights, repair, strict) -> MutationReport:
        """:meth:`mutate` body (the public wrapper adds span + histogram)."""
        if repair not in ("hot", "drop"):
            raise ValueError(f"unknown repair policy {repair!r}; known: hot, drop")
        harvested = self.cache.take_entries(self.graph)
        # weights are the one array mutations may edit in place (pure
        # reweights); indptr/indices are only ever replaced wholesale
        snapshot = (
            self.graph.indptr,
            self.graph.indices,
            self.graph.weights.copy(),
            self.graph.epoch,
            self.delta,
        )
        try:
            applied = apply_edge_updates(
                self.graph, inserts=inserts, deletes=deletes, reweights=reweights, strict=strict
            )
        except Exception:
            # batch rejected before the graph changed (epoch untouched):
            # the harvested entries are still valid — put them back
            for (source, wmode), dist in harvested.items():
                self.cache.put(self.graph, source, wmode, dist)
            raise
        if self._delta_auto:
            self.delta = choose_delta(self.graph)
        hot = (
            [(source, dist) for (source, wmode), dist in harvested.items()
             if wmode == self.weight_mode]
            if repair == "hot" else []
        )
        try:
            for start in range(0, len(hot), REPAIR_GROUP_ROWS):
                self._repair_group(hot[start:start + REPAIR_GROUP_ROWS], applied)
        except Exception:
            # mid-repair failure: the epoch already advanced and some
            # entries were re-put under it — rewind everything to the
            # pre-mutation snapshot so the service keeps answering
            # exactly what it answered before the call
            self._rollback_mutation(snapshot, harvested)
            raise
        if self.landmarks is not None:
            self.landmarks.mark_stale()
        self.planner.note_mutation()
        self._mutations += 1
        self._entries_repaired += len(hot)
        return MutationReport(
            applied=applied,
            repaired_entries=len(hot),
            dropped_entries=len(harvested) - len(hot),
            epoch=self.graph.epoch,
        )

    def _repair_group(self, group: list[tuple[int, np.ndarray]], applied: AppliedUpdates) -> None:
        """Repair one group of ``(source, distances)`` entries in shared
        waves and re-cache them under the new epoch.

        The group's K·n repair state dies when this returns (the cache
        keeps its own copies), so groups never hold two states at once.
        """
        results = repair_many(
            self.graph, [source for source, _ in group], [dist for _, dist in group],
            applied, delta=self.delta, recorder=self.recorder,
        )
        for result in results:
            self.cache.put(self.graph, result.source, self.weight_mode, result.distances)

    def _rollback_mutation(self, snapshot, harvested) -> None:
        """Rewind a mid-repair mutation failure to the pre-mutation state.

        Restores the CSR arrays, epoch, and Δ from *snapshot*, drops
        anything cached under the aborted epoch (including partially
        repaired entries this call re-put), clears derived ``meta``
        caches built against the aborted arrays, and re-inserts the
        *harvested* pre-mutation entries — so every source that answered
        from cache before the call still does, with identical vectors.
        """
        indptr, indices, weights, epoch, delta = snapshot
        g = self.graph
        # evict the aborted epoch's entries before rewinding the counter
        # (afterwards they would key as current and shadow the snapshot)
        self.cache.take_entries(g)
        g.indptr = indptr
        g.indices = indices
        g.weights = weights
        g.epoch = epoch
        self.delta = delta
        _drop_derived_caches(g)
        for (source, wmode), dist in harvested.items():
            self.cache.put(g, source, wmode, dist)

    # -- maintenance & reporting -------------------------------------------

    def invalidate(self) -> int:
        """Drop cached answers after a *raw* in-place graph mutation.

        A raw write to the CSR arrays leaves :attr:`Graph.epoch` where it
        was, so every epoch-keyed cache would keep answering for the old
        graph: after one, call this (or bump ``graph.epoch``).  It drops
        this service's cached distances and every ``_``-prefixed derived
        cache in ``graph.meta`` (light/heavy split, row ids, shard
        views).  Batches applied through :meth:`mutate` never need this
        — the epoch keying retires old entries automatically.
        """
        _drop_derived_caches(self.graph)
        return self.cache.invalidate(self.graph)

    def stats(self) -> ServiceStats:
        rec = self.recorder
        if rec is not None:
            # the bound recorder's histogram is the source of truth: the
            # same distribution the OpenMetrics scrape and the SLO engine
            # read, including its NaN sentinel when nothing was observed
            summary = rec.metrics.histogram("service.query_ms").summary()
            p50, p90, p99 = summary["p50"], summary["p90"], summary["p99"]
        else:
            lat = np.asarray(self._latencies_ms, dtype=np.float64)
            p50, p90, p99 = (
                tuple(np.percentile(lat, [50, 90, 99]))
                if len(lat)
                else (0.0, 0.0, 0.0)
            )
        served = self._exact + self._approximate
        qps = served / self._serving_seconds if self._serving_seconds > 0 else 0.0
        breaker = self.breaker
        return ServiceStats(
            queries_served=served,
            exact_answers=self._exact,
            approximate_answers=self._approximate,
            batches_solved=self._batches_solved,
            sources_solved=self._sources_solved,
            cache=self.cache.stats(),
            latency_p50_ms=float(p50),
            latency_p90_ms=float(p90),
            latency_p99_ms=float(p99),
            throughput_qps=qps,
            mutations_applied=self._mutations,
            entries_repaired=self._entries_repaired,
            degraded_answers=self._degraded,
            deadline_misses=self._deadline_misses,
            mutations_shed=self._mutations_shed,
            breaker_state=breaker.state if breaker is not None else "none",
            breaker_trips=breaker.trips if breaker is not None else 0,
        )

    def _update_breaker_gauges(self) -> None:
        """Refresh ``service.degraded`` / ``service.breaker_state`` gauges."""
        rec = self.recorder
        breaker = self.breaker
        if rec is None or breaker is None:
            return
        state = breaker.state
        rec.set_gauge("service.degraded", 1.0 if state != "closed" else 0.0)
        rec.set_gauge("service.breaker_state", float(BREAKER_STATE_CODES[state]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryService<{self.graph.name}, pending={self.num_pending}, "
            f"cache={len(self.cache)}>"
        )
