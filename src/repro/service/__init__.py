"""Distance-query service: batch SSSP engine + cache + landmarks + server.

The throughput layer on top of the reproduction.  Where :mod:`repro.sssp`
answers "one source, one run", this package serves *query traffic*:

==========================  =================================================
:mod:`~repro.service.batch`      K-source delta-stepping through shared
                                 light/heavy relaxation waves (one ``mxm``
                                 per wave instead of K ``vxm``) on the
                                 repair path's K-row wave loop, or any
                                 other stepper spec as a per-source loop
:mod:`~repro.service.cache`      LRU cache of full distance vectors with
                                 mutation invalidation
:mod:`~repro.service.landmarks`  ALT-style triangle-inequality bounds for
                                 budget-constrained approximate answers
:mod:`~repro.service.planner`    coalesces pending queries, routes
                                 exact vs approximate under a latency budget
:mod:`~repro.service.server`     the synchronous request queue tying it all
                                 together, with latency percentiles and the
                                 ``mutate()`` entry point for dynamic graphs
==========================  =================================================

Entry points::

    from repro.service import batch_delta_stepping, QueryService, Query

    res = batch_delta_stepping(graph, sources=[0, 7, 42])   # K×n distances
    svc = QueryService(graph)
    print(svc.query(source=0, target=99).distance)
    svc.mutate(reweights=[(0, 99, 0.5)])   # repairs hot cache entries in place
"""

from __future__ import annotations

from .batch import BatchSSSPResult, batch_delta_stepping, batch_fused_delta_stepping
from .cache import CacheStats, DistanceCache
from .landmarks import (
    LANDMARK_STRATEGIES,
    DistanceEstimate,
    LandmarkIndex,
    select_landmarks,
)
from .planner import Query, QueryPlan, QueryPlanner
from .server import MutationReport, QueryResponse, QueryService, ServiceStats

__all__ = [
    "BatchSSSPResult",
    "batch_delta_stepping",
    "batch_fused_delta_stepping",
    "DistanceCache",
    "CacheStats",
    "LandmarkIndex",
    "DistanceEstimate",
    "select_landmarks",
    "LANDMARK_STRATEGIES",
    "Query",
    "QueryPlan",
    "QueryPlanner",
    "QueryService",
    "QueryResponse",
    "MutationReport",
    "ServiceStats",
]
