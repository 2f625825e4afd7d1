"""repair_sssp / repair_many: handcrafted scenarios + property tests vs
full recompute."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import apply_edge_updates, repair_many, repair_sssp
from repro.dynamic.incremental import affected_vertices
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.service.server import REPAIR_GROUP_ROWS
from repro.sssp import dijkstra
from repro.sssp.fused import fused_delta_stepping


def _solve(graph, source=0, delta=1.0):
    return fused_delta_stepping(graph, source, delta).distances


def _check(graph, source, d0, applied, delta=1.0):
    rep = repair_sssp(graph, source, d0, applied, delta=delta)
    oracle = _solve(graph, source, delta)
    assert np.array_equal(rep.distances, oracle)
    return rep


class TestScenarios:
    def test_decrease_shortcut(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 2, 1.0)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "decrease-only"
        assert rep.distances[2] == 1.0
        assert rep.distances[3] == 2.0

    def test_insert_shortcut(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, inserts=[(0, 3, 0.5)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "decrease-only"
        assert rep.distances[3] == 0.5

    def test_increase_on_shortest_path(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 10.0)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "general"
        assert rep.affected >= 1
        # the 0 -> 2 chord takes over
        assert rep.distances[2] == 7.0

    def test_delete_disconnects(self):
        g = Graph.from_edges([0, 1], [1, 2], [1.0, 1.0], n=3)
        d0 = _solve(g)
        applied = apply_edge_updates(g, deletes=[(1, 2)])
        rep = _check(g, 0, d0, applied)
        assert not np.isfinite(rep.distances[2])

    def test_delete_off_tree_edge_is_cheap(self, diamond_graph):
        # 0 -> 2 (weight 7) is not on any shortest path: nothing to repair
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, deletes=[(0, 2)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.affected == 0
        assert rep.phases == 0

    def test_mixed_batch(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(
            diamond_graph,
            inserts=[(1, 3, 0.5)],
            deletes=[(2, 3)],
            reweights=[(0, 1, 3.0)],
        )
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "general"
        assert rep.distances[3] == 3.5

    def test_decreased_edge_losing_its_worsened_tail(self):
        """Regression: a decreased edge whose tail is worsened in the same
        batch must still invalidate its head — old-weight tightness is
        lost for decreases too, not only for deletes/increases."""
        # source -> 1 -> 2 -> 3 chain; distances 0, 1, 2, 3
        g = Graph.from_edges([0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0], n=4)
        d0 = _solve(g)
        # worsen 1 -> 2 (tail side) while decreasing 2 -> 3
        applied = apply_edge_updates(g, reweights=[(1, 2, 5.0), (2, 3, 0.9)])
        rep = _check(g, 0, d0, applied)
        assert rep.distances[3] == 0 + 1.0 + 5.0 + 0.9

    def test_zero_weight_edges_use_conservative_closure(self):
        g = Graph.from_edges(
            [0, 1, 2, 3, 0], [1, 2, 3, 1, 4], [0.0, 0.0, 0.0, 0.0, 2.0], n=5
        )
        d0 = _solve(g)
        applied = apply_edge_updates(g, deletes=[(0, 1)])
        rep = _check(g, 0, d0, applied)
        assert rep.mode == "general"
        assert not np.isfinite(rep.distances[1])

    def test_noop_batch(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 2.0)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "noop"
        assert rep.phases == 0

    def test_validate_flag_passes_on_correct_repair(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 4.0)])
        rep = repair_sssp(diamond_graph, 0, d0, applied, delta=1.0, validate=True)
        assert rep.distances[1] == 4.0

    def test_read_only_input_accepted(self, diamond_graph):
        d0 = _solve(diamond_graph)
        d0.flags.writeable = False
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 4.0)])
        rep = repair_sssp(diamond_graph, 0, d0, applied, delta=1.0)
        assert d0[1] == 2.0  # input untouched
        assert rep.distances[1] == 4.0

    def test_bad_inputs(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 4.0)])
        with pytest.raises(IndexError):
            repair_sssp(diamond_graph, 99, d0, applied)
        with pytest.raises(ValueError):
            repair_sssp(diamond_graph, 0, d0[:2], applied)
        with pytest.raises(ValueError):
            repair_sssp(diamond_graph, 0, d0, applied, delta=0.0)


class TestAffectedSet:
    def test_source_never_affected(self):
        g = Graph.from_edges([0, 1], [1, 2], [1.0, 1.0], n=3)
        d0 = _solve(g)
        applied = apply_edge_updates(g, reweights=[(0, 1, 3.0)])
        aff = affected_vertices(g, d0, applied.worsening_edges(), source=0)
        assert not aff[0]
        assert aff[1] and aff[2]

    def test_surviving_support_not_affected(self):
        # two disjoint unit paths to 2; worsening one leaves 2 supported
        g = Graph.from_edges([0, 0, 1, 3], [1, 3, 2, 2], [1.0, 1.0, 1.0, 1.0], n=4)
        d0 = _solve(g)
        applied = apply_edge_updates(g, reweights=[(1, 2, 5.0)])
        aff = affected_vertices(g, d0, applied.worsening_edges(), source=0)
        assert not aff[2]  # still tight via 3 -> 2


@st.composite
def mutation_cases(draw, zero_weights=None):
    """A random directed graph and one mixed update batch.

    Vertices ``[0, na)`` form the part the batch mutates — inserts,
    deletes, weight increases and weight decreases; ``[na, na + nb)`` is a
    second component no update can reach from or into; the last vertex
    is isolated, so every source has unreachable vertices.  With
    *zero_weights* (drawn when ``None``) about 15% of the edges weigh 0,
    which switches repair to the conservative-closure path.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    na, nb = draw(st.integers(8, 40)), draw(st.integers(2, 8))
    zero = draw(st.booleans()) if zero_weights is None else zero_weights
    n = na + nb + 1
    ma, mb = 4 * na, 2 * nb
    w = rng.uniform(0.05, 1.0, ma + mb)
    if zero:
        w[rng.random(ma + mb) < 0.15] = 0.0
    g = Graph.from_edges(
        np.concatenate([rng.integers(0, na, ma), na + rng.integers(0, nb, mb)]),
        np.concatenate([rng.integers(0, na, ma), na + rng.integers(0, nb, mb)]),
        w, n=n,
    )
    src_all = g.row_sources()
    part_a = np.flatnonzero(src_all < na)
    pick = rng.choice(part_a, size=min(8, len(part_a)), replace=False)
    up, down, gone = pick[:3], pick[3:6], pick[6:]
    reweights = (
        np.concatenate([src_all[up], src_all[down]]),
        np.concatenate([g.indices[up], g.indices[down]]),
        np.concatenate([
            g.weights[up] * rng.uniform(1.5, 3.0, len(up)) + 0.1,
            g.weights[down] * rng.uniform(0.1, 0.7, len(down)),
        ]),
    )
    deletes = (src_all[gone], g.indices[gone])
    inserts = []
    for _ in range(200):
        u, v = (int(x) for x in rng.integers(0, na, 2))
        if u != v and g.edge_weight(u, v) is None and (u, v) not in {e[:2] for e in inserts}:
            inserts.append((u, v, float(rng.uniform(0.0 if zero else 0.05, 1.0))))
            if len(inserts) == 2:
                break
    return g, na, dict(inserts=inserts, deletes=deletes, reweights=reweights)


class TestProperties:
    @given(mutation_cases())
    @settings(max_examples=40, deadline=None)
    def test_repair_equals_recompute_random_batches(self, case):
        g, _, batch = case
        delta = 0.4
        d0 = _solve(g, 0, delta)
        applied = apply_edge_updates(g, **batch)
        _check(g, 0, d0, applied, delta=delta)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_repair_on_unit_grid_deletes(self, seed):
        rng = np.random.default_rng(seed)
        g = gen.grid_2d(8, 8)
        d0 = _solve(g)
        src_all = np.repeat(np.arange(g.num_vertices, dtype=np.int64), np.diff(g.indptr))
        upper = np.nonzero(src_all < g.indices)[0]
        pick = rng.choice(upper, size=3, replace=False)
        applied = apply_edge_updates(
            g, deletes=(src_all[pick], g.indices[pick])
        )
        _check(g, 0, d0, applied)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_sequential_batches_compose(self, seed):
        """Repairing batch after batch tracks the truth across epochs."""
        rng = np.random.default_rng(seed)
        g = gen.watts_strogatz(40, k=4, beta=0.2, seed=int(seed % 1000))
        d = _solve(g)
        for _ in range(3):
            src_all = np.repeat(np.arange(g.num_vertices, dtype=np.int64), np.diff(g.indptr))
            upper = np.nonzero(src_all < g.indices)[0]
            p = int(rng.choice(upper))
            applied = apply_edge_updates(
                g, reweights=[(int(src_all[p]), int(g.indices[p]), float(rng.uniform(0.2, 3.0)))]
            )
            rep = repair_sssp(g, 0, d, applied, delta=1.0)
            d = rep.distances
        assert np.array_equal(d, _solve(g))
        assert g.epoch == 3


class TestRepairMany:
    """Differential: every row of a shared-wave repair equals a full
    recompute (fused delta-stepping and Dijkstra) on the mutated graph."""

    @given(
        mutation_cases(),
        st.sampled_from([1, 2, 17]),
        st.sampled_from([0.1, 0.4, 2.0]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_match_recompute(self, case, k_rows, delta, seed):
        g, na, batch = case
        n = g.num_vertices
        rng = np.random.default_rng(seed)
        sources = [int(s) for s in rng.integers(0, na, k_rows)]
        if k_rows > 1:
            sources[-1] = int(rng.integers(na, n - 1))  # outside the batch's reach
        before = [fused_delta_stepping(g, s, delta).distances.copy() for s in sources]
        applied = apply_edge_updates(g, **batch)

        rows = repair_many(g, sources, before, applied, delta=delta)
        grouped = [
            r
            for i in range(0, k_rows, REPAIR_GROUP_ROWS)
            for r in repair_many(
                g, sources[i:i + REPAIR_GROUP_ROWS], before[i:i + REPAIR_GROUP_ROWS],
                applied, delta=delta,
            )
        ]
        assert len(rows) == len(grouped) == k_rows
        for k, s in enumerate(sources):
            oracle = fused_delta_stepping(g, s, delta).distances
            assert rows[k].source == s
            assert np.array_equal(rows[k].distances, oracle)
            assert np.array_equal(grouped[k].distances, oracle)
            assert np.array_equal(oracle, dijkstra(g, s).distances)
            assert not np.isfinite(rows[k].distances[n - 1])  # isolated vertex
        if k_rows > 1:
            noop = rows[-1]
            assert noop.affected == noop.seeds == 0
            assert np.array_equal(noop.distances, before[-1])

    @given(mutation_cases(zero_weights=True), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_zero_weight_closure_rows(self, case, seed):
        g, na, batch = case
        sources = [int(s) for s in np.random.default_rng(seed).integers(0, na, 3)]
        before = [fused_delta_stepping(g, s, 0.4).distances.copy() for s in sources]
        applied = apply_edge_updates(g, **batch)
        for s, row in zip(sources, repair_many(g, sources, before, applied, delta=0.4)):
            assert np.array_equal(row.distances, dijkstra(g, s).distances)

    def test_rows_equal_single_repairs_and_share_waves(self):
        g = gen.watts_strogatz(80, k=4, beta=0.2, seed=4)
        sources = [0, 7, 7, 33]  # duplicates get their own rows
        before = [fused_delta_stepping(g, s, 1.0).distances.copy() for s in sources]
        applied = apply_edge_updates(
            g,
            deletes=[(0, int(g.indices[g.indptr[0]]))],
            reweights=[(7, int(g.indices[g.indptr[7]]), 0.2)],
        )
        rows = repair_many(g, sources, np.stack(before), applied, delta=1.0)
        singles = [repair_sssp(g, s, d, applied, delta=1.0) for s, d in zip(sources, before)]
        for row, single in zip(rows, singles):
            assert np.array_equal(row.distances, single.distances)
            assert (row.mode, row.affected, row.seeds) == (single.mode, single.affected, single.seeds)
        # one wave loop for all rows: no more phases than the rows' sum
        assert rows[0].phases <= sum(r.phases for r in singles)
        assert len({(r.buckets, r.phases, r.relaxations) for r in rows}) == 1

    def test_empty_and_mismatched_inputs(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 4.0)])
        assert repair_many(diamond_graph, [], [], applied, delta=1.0) == []
        with pytest.raises(ValueError, match="distance vectors"):
            repair_many(diamond_graph, [0, 1], [d0], applied, delta=1.0)
        with pytest.raises(IndexError):
            repair_many(diamond_graph, [0, 99], [d0, d0], applied, delta=1.0)
