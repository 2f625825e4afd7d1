"""Dynamic graphs: mutation batches + incremental SSSP repair.

The dynamic-SSSP layer (the SSSP-Del direction) on top of the
reproduction.  Where :mod:`repro.service` treats graphs as frozen, this
package makes them *mutable* and distance answers *repairable*:

==============================  =============================================
:mod:`~repro.dynamic.mutations`    ``apply_edge_updates`` — insert / delete /
                                   reweight batches that keep the CSR
                                   canonical and bump ``graph.epoch``
:mod:`~repro.dynamic.incremental`  ``repair_many`` / ``repair_sssp`` —
                                   delta-stepping repair waves seeded
                                   from the update batch, K cached
                                   vectors per shared wave loop,
                                   bit-identical to a full recompute
==============================  =============================================

Entry points::

    from repro.dynamic import apply_edge_updates, repair_many, repair_sssp

    applied = apply_edge_updates(graph, reweights=[(u, v, 0.2)])
    repaired = repair_sssp(graph, source, old_distances, applied)
    rows = repair_many(graph, sources, old_rows, applied)  # shared waves

The service layer drives both through
:meth:`repro.service.QueryService.mutate`, which repairs hot cache
entries in place (in groups of ``REPAIR_GROUP_ROWS`` rows per
``repair_many`` call) and lazily rebuilds the landmark index.
"""

from __future__ import annotations

from .incremental import RepairResult, affected_vertices, repair_many, repair_sssp
from .mutations import AppliedUpdates, InvalidWeightError, apply_edge_updates

__all__ = [
    "AppliedUpdates",
    "apply_edge_updates",
    "InvalidWeightError",
    "RepairResult",
    "repair_many",
    "repair_sssp",
    "affected_vertices",
]
