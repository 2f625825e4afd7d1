"""Series generators for every figure in the paper's evaluation.

- :func:`fig3_series` — Fig. 3: sequential runtime (ms) of the unfused
  GraphBLAS implementation vs the fused implementation, per graph,
  ascending node count; headline = average fused speedup (paper: 3.7×).
- :func:`fig4_series` — Fig. 4: task-parallel speedup over the fused
  sequential implementation at 2 and 4 threads (paper: 1.44× / 1.5×
  averages), real threads or simulated schedule.
- :func:`sec6c_profile` — §VI.C: share of sequential runtime spent in the
  A_L/A_H matrix filtering (paper: 35–40%).

Each returns plain dict-rows ready for
:func:`repro.bench.reporting.format_table`; ``render_*`` wraps them in
the figure-shaped ASCII output the CLI prints.
"""

from __future__ import annotations

from ..sssp.fused import fused_delta_stepping
from ..sssp.graphblas_sssp import graphblas_delta_stepping
from ..sssp.parallel import parallel_delta_stepping
from .reporting import ascii_bar_chart, format_table, geometric_mean
from .timing import cold_split, time_callable
from .workloads import Workload, suite_workloads

__all__ = [
    "fig3_series",
    "fig4_series",
    "sec6c_profile",
    "render_fig3",
    "render_fig4",
    "render_sec6c",
]


def fig3_series(
    workloads: list[Workload] | None = None,
    repeats: int = 3,
    verify: bool = True,
) -> list[dict]:
    """Unfused vs fused sequential runtimes per graph (Fig. 3 series)."""
    workloads = workloads if workloads is not None else suite_workloads()
    rows = []
    for wl in workloads:
        unfused = time_callable(
            lambda: graphblas_delta_stepping(wl.graph, wl.source, wl.delta),
            repeats=repeats,
        )
        fused = time_callable(
            cold_split(wl.graph, lambda: fused_delta_stepping(wl.graph, wl.source, wl.delta)),
            repeats=repeats,
        )
        if verify:
            a = graphblas_delta_stepping(wl.graph, wl.source, wl.delta)
            b = fused_delta_stepping(wl.graph, wl.source, wl.delta)
            assert a.same_distances(b), f"{wl.name}: unfused != fused"
        rows.append(
            {
                "graph": wl.name,
                "nodes": wl.num_vertices,
                "edges": wl.num_edges,
                "unfused_ms": unfused.best_ms,
                "fused_ms": fused.best_ms,
                "speedup": unfused.best / fused.best,
            }
        )
    return rows


def fig4_series(
    workloads: list[Workload] | None = None,
    threads: tuple[int, ...] = (2, 4),
    simulate: bool = True,
    repeats: int = 3,
) -> list[dict]:
    """Task-parallel speedup over sequential fused, per graph (Fig. 4).

    ``simulate=True`` (default) uses the deterministic cost-model executor:
    the paper's task decomposition is measured serially and scheduled onto
    N modeled threads — host-independent, which matters here because
    CPython's GIL prevents real-thread gains for the non-ufunc kernels
    (gather/fancy-indexing) on this workload.  ``simulate=False`` times
    real threads (honest but host- and GIL-gated; see EXPERIMENTS.md).
    """
    workloads = workloads if workloads is not None else suite_workloads()
    rows = []
    for wl in workloads:
        row: dict = {"graph": wl.name, "nodes": wl.num_vertices}
        if simulate:
            for t in threads:
                # self-consistent: serial and simulated time from the same
                # run, so measurement noise cancels out of the ratio
                r = parallel_delta_stepping(wl.graph, wl.source, wl.delta, num_threads=t, simulate=True)
                row[f"speedup_{t}t"] = r.extra["simulated_speedup"]
        else:
            seq = time_callable(
                cold_split(wl.graph, lambda: fused_delta_stepping(wl.graph, wl.source, wl.delta)),
                repeats=repeats,
            )
            for t in threads:
                par = time_callable(
                    lambda: parallel_delta_stepping(wl.graph, wl.source, wl.delta, num_threads=t),
                    repeats=repeats,
                )
                row[f"speedup_{t}t"] = seq.best / par.best
        rows.append(row)
    return rows


#: stage-name groups for the §VI.C breakdown, per implementation
SEC6C_GROUPS = {
    "fused": {
        "matrix_filter": ["filter:AL", "filter:AH", "filter:split"],
        "vector_filter": ["filter:bucket", "filter:settled", "outer:check"],
        "relaxation": ["relax:fused", "relax:tReq", "relax:tless", "relax:tB", "relax:minmerge"],
    },
    "unfused": {
        "matrix_filter": ["filter:AL", "filter:AH"],
        "vector_filter": ["filter:bucket", "filter:reenter", "outer:check"],
        "vxm": ["vxm:light", "vxm:heavy"],
        "vector_other": ["vector:S", "vector:minmerge", "vector:clear"],
    },
}


def sec6c_profile(
    workloads: list[Workload] | None = None,
    implementation: str = "fused",
) -> list[dict]:
    """Share of sequential runtime per stage group (§VI.C).

    The paper's 35-40% matrix-filter share is measured on its *fused
    sequential C* implementation (with A_L and A_H still built
    separately, as the task decomposition requires); ``implementation``
    selects ``"fused"`` (default, matching the paper) or ``"unfused"``.
    """
    from ..obs.stage import StageTimer

    workloads = workloads if workloads is not None else suite_workloads()
    groups = SEC6C_GROUPS[implementation]
    rows = []
    for wl in workloads:
        if implementation == "fused":
            r = fused_delta_stepping(
                wl.graph, wl.source, wl.delta, fuse_matrix_split=False, instrument=True
            )
        else:
            r = graphblas_delta_stepping(wl.graph, wl.source, wl.delta, instrument=True)
        timer = StageTimer()
        for k, v in (r.profile or {}).items():
            timer.add(k, v)
        merged = timer.merged(groups)
        total = sum(merged.values()) or 1.0
        row = {"graph": wl.name, "nodes": wl.num_vertices}
        for gname, secs in merged.items():
            row[f"{gname}_pct"] = 100.0 * secs / total
        rows.append(row)
    return rows


# -- renderers ----------------------------------------------------------------


def render_fig3(rows: list[dict]) -> str:
    """The Fig. 3 panel: table + log-scale runtime chart + headline."""
    table = format_table(
        rows,
        columns=["graph", "nodes", "edges", "unfused_ms", "fused_ms", "speedup"],
    )
    chart = ascii_bar_chart(
        [r["graph"] for r in rows],
        {
            "SuiteSparse-style (unfused)": [r["unfused_ms"] for r in rows],
            "Fused impl.": [r["fused_ms"] for r in rows],
        },
        log_scale=True,
        unit="ms",
    )
    amean = sum(r["speedup"] for r in rows) / len(rows)
    gmean = geometric_mean(r["speedup"] for r in rows)
    return (
        "Fig. 3 — Unfused vs. Fused sequential performance "
        "(graphs ascending by node count)\n\n"
        f"{table}\n\n{chart}\n\n"
        f"Average fused speedup: {amean:.2f}x arithmetic, {gmean:.2f}x geometric "
        "(paper reports 3.7x average in C)\n"
    )


def render_fig4(rows: list[dict], simulate: bool = False) -> str:
    """The Fig. 4 panel: per-graph speedup bars + averages."""
    threads = sorted(
        int(k.split("_")[1][:-1]) for k in rows[0] if k.startswith("speedup_")
    )
    table = format_table(rows, columns=["graph", "nodes"] + [f"speedup_{t}t" for t in threads])
    chart = ascii_bar_chart(
        [r["graph"] for r in rows],
        {f"{t} threads": [r[f"speedup_{t}t"] for r in rows] for t in threads},
        unit="x",
    )
    means = {
        t: sum(r[f"speedup_{t}t"] for r in rows) / len(rows) for t in threads
    }
    means_text = ", ".join(f"{t} threads: {m:.2f}x" for t, m in means.items())
    mode = "simulated schedule" if simulate else "real threads"
    return (
        f"Fig. 4 — Task-parallel speedup over sequential fused ({mode}, "
        "graphs ascending by node count)\n\n"
        f"{table}\n\n{chart}\n\n"
        f"Average speedup: {means_text} "
        "(paper reports 1.44x at 2 threads, 1.5x at 4 threads)\n"
    )


def render_sec6c(rows: list[dict]) -> str:
    """The §VI.C panel: stage-share table + headline."""
    cols = ["graph", "nodes"] + [k for k in rows[0] if k.endswith("_pct")]
    table = format_table(rows, columns=cols)
    avg_filter = sum(r["matrix_filter_pct"] for r in rows) / len(rows)
    return (
        "§VI.C — Share of unfused sequential runtime by operation group\n\n"
        f"{table}\n\n"
        f"Average A_L/A_H matrix-filter share: {avg_filter:.1f}% "
        "(paper reports 35-40%)\n"
    )
