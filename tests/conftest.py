"""Shared test fixtures: small deterministic graphs and random generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.graph import Graph


@pytest.fixture(autouse=True)
def _bench_json_to_tmp(tmp_path, monkeypatch):
    """Point the shared BENCH_<NAME>.json writer at a tmpdir so test runs
    never overwrite the repo-root perf trajectory."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))


@pytest.fixture
def split_builds(monkeypatch):
    """Record every real light/heavy split build of the fused engine (its
    ``fused`` flag), counted at the module-level name the engine calls."""
    import repro.sssp.fused as fused

    calls = []
    real = fused.split_csr_light_heavy

    def counting(*args, **kwargs):
        calls.append(kwargs.get("fused", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(fused, "split_csr_light_heavy", counting)
    return calls


@pytest.fixture
def diamond_graph() -> Graph:
    """The 4-vertex weighted diamond used throughout the unit tests::

        0 --2.0--> 1 --3.0--> 2 --1.0--> 3
        0 -------7.0--------> 2

    Shortest: d = [0, 2, 5, 6].
    """
    return Graph.from_edges(
        [0, 0, 1, 2], [1, 2, 2, 3], [2.0, 7.0, 3.0, 1.0], n=4, name="diamond"
    )


@pytest.fixture
def grid_graph() -> Graph:
    """8x8 unit-weight mesh (64 vertices, known BFS distances)."""
    return generators.grid_2d(8, 8)


@pytest.fixture
def random_weighted_graph() -> Graph:
    """Seeded 120-vertex random digraph with uniform weights in [0.1, 1)."""
    rng = np.random.default_rng(42)
    m = 600
    src = rng.integers(0, 120, size=m)
    dst = rng.integers(0, 120, size=m)
    w = rng.uniform(0.1, 1.0, size=m)
    return Graph.from_edges(src, dst, w, n=120, name="rand120")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
