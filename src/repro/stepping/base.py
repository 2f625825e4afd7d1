"""The stepping-algorithm contract and its registry.

The paper treats Δ-stepping as a single algorithm; Dong, Gu, Sun & Zhang
("Efficient Stepping Algorithms and Implementations for Parallel Shortest
Paths", 2021) show it is one point in a *family*: every member repeats

1. **step** — pick a bound θ and extract every active vertex with
   ``d ≤ θ`` (a Δ bucket, the ρ nearest, a radius-bounded range …);
2. **relax** — generate the batch's relaxation requests and min-merge
   them into the tentative distances;
3. re-activate whichever vertices improved.

Only the rule for θ differs, so each framework stepper is a
:class:`~repro.sssp.fused.Threshold` policy of the one bucket loop,
:func:`repro.sssp.fused.relax_rows` (:meth:`Stepper._relax_policy`).

:class:`Stepper` pins that loop down as an interface.  The load-bearing
method is :meth:`Stepper.resolve`: *run the schedule from an arbitrary
seeded state* — tentative distances plus an active mask — to quiescence.
``solve`` (fresh single-source run) is just ``resolve`` seeded with
``{source: 0}``, and the dynamic layer's incremental repair is ``resolve``
seeded with the dirty region, so one implementation serves both entry
points.  Legacy solvers (the paper's fused kernel, the GraphBLAS form,
Dijkstra, Bellman–Ford) are wrapped as steppers too, so the auto-tuner
(:mod:`repro.stepping.autotune`) can race the whole portfolio.

Discovery follows the ``DELTA_STRATEGIES`` idiom of
:mod:`repro.sssp.delta`: one module-level registry (:data:`STEPPERS`),
one accessor (:func:`get_stepper`) whose ``ValueError`` enumerates every
member, and one CLI (``repro steppers --list``) rendering the same table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable

import numpy as np
from numpy.typing import NDArray

from ..graphs.graph import Graph
from ..kernels import check_kernel
from ..obs.stage import NO_TIMER, StageTimer
from ..sssp.delta import choose_delta
from ..sssp.fused import Threshold, relax_rows
from ..sssp.result import INF, SSSPResult

__all__ = [
    "Stepper",
    "FunctionStepper",
    "STEPPERS",
    "register_stepper",
    "get_stepper",
    "stepper_names",
    "format_known",
    "new_counters",
    "parse_stepper_spec",
    "resolve_stepper_spec",
]


def format_known(names: Iterable[str]) -> str:
    """Render a registry's keys for an error message (shared idiom with
    :func:`repro.sssp.delta.choose_delta`)."""
    return ", ".join(names)


def new_counters() -> dict[str, Any]:
    """A fresh work-counter dict in :class:`~repro.sssp.result.SSSPResult`
    vocabulary: ``steps`` are outer batches (buckets for Δ-steppers),
    ``phases`` inner relaxation waves."""
    return {"steps": 0, "phases": 0, "relaxations": 0, "updates": 0}


class Stepper(ABC):
    """One member of the stepping-algorithm family.

    Attributes
    ----------
    name:
        Registry key (also the CLI / bench spelling).
    kind:
        ``"stepping"`` for the generalized-framework solvers,
        ``"legacy"`` for wrapped pre-framework implementations.
    description:
        One-line summary for ``repro steppers --list``.
    supports_resolve:
        Whether :meth:`resolve` is implemented (the dynamic layer's
        repair path requires it).
    parallel_capable:
        Whether ``solve``/``resolve`` accept a ``pool=`` keyword
        (a :class:`repro.parallel.pool.WorkerPool`) for embedders that
        manage their own worker pool; transport specs resolved without
        one fall back to the shared :func:`repro.parallel.pool.get_pool`
        pools.
    kernel_capable:
        Whether ``solve``/``resolve`` accept a ``kernel=`` keyword
        selecting the :mod:`repro.kernels` per-target-min kernel
        (``"rho(kernel=scatter)"`` in spec spelling); the kernel-
        equivalence tests race every capable stepper under both kernels.

    Every registry member additionally accepts ``recorder=`` on
    ``solve`` (and, where implemented, ``resolve``): a truthy
    :class:`repro.obs.Recorder` receives trace spans and metrics;
    ``None`` / ``NO_RECORDER`` is the zero-cost disabled path, and the
    obs test suite pins recorded runs bit-identical to unrecorded ones.
    """

    name: str = "?"
    kind: str = "stepping"
    description: str = ""
    supports_resolve: bool = True
    parallel_capable: bool = False
    kernel_capable: bool = True
    #: short spec-parameter spellings → the solve() keyword they set
    #: (``"sharded(shards=4)"`` → ``num_shards=4``); consulted by
    #: :func:`resolve_stepper_spec`, empty for most steppers
    spec_param_aliases: dict[str, str] = {}

    @abstractmethod
    def solve(self, graph: Graph, source: int, **params: Any) -> SSSPResult:
        """Fresh single-source run; implementations share the
        ``(graph, source)`` leading signature of :data:`repro.sssp.METHODS`."""

    def resolve(
        self,
        graph: Graph,
        dist: NDArray[np.float64],
        active: NDArray[np.bool_],
        **params: Any,
    ) -> dict[str, Any]:
        """Run the schedule from a seeded state to quiescence.

        *dist* is modified in place; *active* is a boolean mask of
        vertices whose out-edges still need relaxing (consumed).
        Returns the work counters (:func:`new_counters` keys).
        """
        raise NotImplementedError(f"stepper {self.name!r} does not support resolve()")

    def default_params(self, graph: Graph) -> dict[str, Any]:
        """The parameter values a bare ``solve(graph, source)`` will use
        (reported by the bench so runs are reproducible)."""
        return {}

    def _relax_policy(
        self,
        graph: Graph,
        dist: NDArray[np.float64],
        active: NDArray[np.bool_],
        policy: Threshold,
        kernel: str,
        recorder: Any,
        width: float | None = None,
    ) -> dict[str, Any]:
        """``resolve`` as one K=1 :func:`~repro.sssp.fused.relax_rows`
        call under *policy*, seeded from the *active* mask (consumed).
        Any queue *width* gives the same schedule; the default, the
        auto-Δ, keeps reading θ to a few buckets."""
        check_kernel(kernel)
        if active.shape != dist.shape:
            raise ValueError("active mask must match the distance array")
        if width is None:
            width = float(choose_delta(graph))
            width = width if 0 < width < INF else 1.0  # NaN/inf weights
        seeds = np.flatnonzero(active & (dist < INF))  # inf has nothing to relax
        active[:] = False
        timer = StageTimer(recorder=recorder) if recorder else NO_TIMER
        c = relax_rows(
            graph, dist, seeds, width, kernel=kernel, timer=timer, recorder=recorder,
            policy=policy,
        )
        return {
            "steps": c["buckets"], "phases": c["phases"],
            "relaxations": c["relaxations"], "updates": c["updates"],
        }

    def _seeded_solve(
        self, graph: Graph, source: int, method: str, **params: Any
    ) -> SSSPResult:
        """``resolve`` seeded with ``{source: 0}``, packaged as a result."""
        n = graph.num_vertices
        if not 0 <= source < n:
            raise IndexError(f"source {source} out of range [0, {n})")
        dist = np.full(n, INF, dtype=np.float64)
        dist[source] = 0.0
        active = np.zeros(n, dtype=bool)
        active[source] = True
        recorder = params.get("recorder")
        if recorder:
            with recorder.span(f"solve:{self.name}", stepper=self.name, source=int(source)):
                counters = self.resolve(graph, dist, active, **params)
        else:
            counters = self.resolve(graph, dist, active, **params)
        return SSSPResult(
            distances=dist,
            source=source,
            delta=float(params.get("delta", float("nan"))),
            method=method,
            buckets_processed=counters["steps"],
            phases=counters["phases"],
            relaxations=counters["relaxations"],
            updates=counters["updates"],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stepper<{self.name} ({self.kind})>"


class FunctionStepper(Stepper):
    """A pre-framework solver adopted into the registry.

    Wraps any ``(graph, source, **kw) -> SSSPResult`` callable (the fused
    Δ kernel, Dijkstra, Bellman–Ford …) so the auto-tuner and the CLI can
    treat the whole portfolio uniformly.  ``resolve`` is unavailable:
    these implementations own their seeding.
    """

    kind = "legacy"
    supports_resolve = False
    kernel_capable = False

    def __init__(
        self,
        name: str,
        fn: Callable[..., SSSPResult],
        description: str = "",
        defaults: dict[str, Any] | None = None,
        kernel_capable: bool = False,
        recorder_capable: bool = False,
    ) -> None:
        self.name = name
        self.description = description
        self._fn = fn
        self._defaults = dict(defaults or {})
        self.kernel_capable = kernel_capable
        #: whether the wrapped fn takes ``recorder=`` itself (the fused
        #: kernel does, emitting per-bucket/per-stage spans); otherwise a
        #: recording run still gets one whole-solve span from the wrapper
        self.recorder_capable = recorder_capable

    def solve(self, graph: Graph, source: int, **params: Any) -> SSSPResult:
        kw = {**self._defaults, **params}
        recorder = kw.pop("recorder", None)
        if recorder:
            if self.recorder_capable:
                return self._fn(graph, source, recorder=recorder, **kw)
            with recorder.span(f"solve:{self.name}", stepper=self.name, source=int(source)):
                return self._fn(graph, source, **kw)
        return self._fn(graph, source, **kw)

    def default_params(self, graph: Graph) -> dict[str, Any]:
        return dict(self._defaults)


#: name → :class:`Stepper`; the one discovery surface shared by
#: :func:`get_stepper`, the auto-tuner, ``repro steppers --list``, the
#: STEP bench, and the service batch dispatch.
STEPPERS: dict[str, Stepper] = {}


def register_stepper(stepper: Stepper) -> Stepper:
    """Add *stepper* to :data:`STEPPERS` (last registration wins)."""
    STEPPERS[stepper.name] = stepper
    return stepper


def get_stepper(name: str) -> Stepper:
    """Look up a stepper by registry name.

    Raises ``ValueError`` naming every registered algorithm — the same
    contract as :func:`repro.sssp.delta.choose_delta` for Δ strategies.
    """
    try:
        return STEPPERS[name]
    except KeyError:
        raise ValueError(
            f"unknown stepper {name!r}; known: {format_known(STEPPERS)}"
        ) from None


def stepper_names(kind: str | None = None) -> list[str]:
    """Registered stepper names, optionally filtered by ``kind``."""
    return [s.name for s in STEPPERS.values() if kind is None or s.kind == kind]


def _parse_value(text: str) -> int | float | str:
    """A spec parameter value: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_stepper_spec(spec: str) -> tuple[str, dict[str, int | float | str]]:
    """Split a stepper spec into ``(registry name, solve params)``.

    A *spec* is a registry name with optional call-style parameters —
    ``"sharded(shards=4, partitioner=bfs)"`` — the spelling the
    auto-tuner uses to race one algorithm under several configurations
    and the CLI accepts anywhere a stepper name goes.  Values parse as
    int, float, or bare string.  A bare name passes through unchanged
    with empty params; the name is *not* validated here (use
    :func:`resolve_stepper_spec` for lookup + validation).
    """
    spec = spec.strip()
    if "(" not in spec:
        return spec, {}
    name, _, rest = spec.partition("(")
    rest = rest.strip()
    if not rest.endswith(")"):
        raise ValueError(f"malformed stepper spec {spec!r} (missing ')')")
    params: dict[str, int | float | str] = {}
    body = rest[:-1].strip()
    if body:
        for item in body.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise ValueError(
                    f"malformed stepper spec {spec!r} (expected key=value, got {item!r})"
                )
            params[key.strip()] = _parse_value(value.strip())
    return name.strip(), params


def resolve_stepper_spec(spec: str) -> tuple[Stepper, dict[str, int | float | str]]:
    """Look up a spec's stepper and normalize its params.

    Param spellings go through the stepper's own
    :attr:`Stepper.spec_param_aliases`, so short CLI-friendly names
    (``shards=4``) map onto the solve keyword (``num_shards``) without
    the framework hardcoding any stepper's vocabulary.  Raises the same
    registry-enumerating ``ValueError`` as :func:`get_stepper` for
    unknown names.
    """
    name, params = parse_stepper_spec(spec)
    stepper = get_stepper(name)
    aliases = stepper.spec_param_aliases
    return stepper, {aliases.get(k, k): v for k, v in params.items()}
