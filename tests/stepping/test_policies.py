"""The framework steppers as threshold policies of the one bucket loop.

ρ, Δ* and radius run on :func:`repro.sssp.fused.relax_rows`: each step
extracts every pending vertex with ``d ≤ θ``, and only the rule that
picks θ differs.  These tests pin the θ rules on a hand-filled queue,
the four work counters of each stepper (so the schedule cannot drift),
and the steppers' independence from the Δ grid's light/heavy split.
"""

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.kernels import BucketQueue
from repro.stepping import get_stepper, solve_with
from repro.stepping.delta_star import _window
from repro.stepping.radius_stepping import _radius_bound
from repro.stepping.rho_stepping import _nearest

PORTED = ("rho", "delta-star", "radius")


def _queue(dist, width=1.0):
    dist = np.asarray(dist, dtype=np.float64)
    bq = BucketQueue(width)
    bq.push(np.arange(len(dist), dtype=np.int64), dist)
    return bq, dist


class TestRhoPolicy:
    def test_theta_is_the_rho_th_smallest_pending_distance(self):
        bq, dist = _queue([4.0, 1.0, 3.0, 2.0])
        theta = _nearest(2).pick(bq, dist)
        assert theta == 2.0
        assert sorted(bq.pop_upto(dist, theta).tolist()) == [1, 3]

    def test_ties_at_the_rho_th_distance_all_come_out(self):
        """A batch is closed under equal priority, so the step count does
        not depend on tie-breaking order."""
        bq, dist = _queue([1.0, 1.0, 1.0, 5.0])
        theta = _nearest(2).pick(bq, dist)
        assert sorted(bq.pop_upto(dist, theta).tolist()) == [0, 1, 2]

    def test_rho_or_fewer_pending_takes_all(self):
        bq, dist = _queue([3.0, 1.0])
        theta = _nearest(10).pick(bq, dist)
        assert theta == np.inf
        assert sorted(bq.pop_upto(dist, theta).tolist()) == [0, 1]

    def test_pop_nearest_rejects_bad_rho(self):
        for rho in (0, -1):
            with pytest.raises(ValueError):
                _nearest(rho)

    def test_nothing_pending_ends_the_loop(self):
        assert _nearest(4).pick(BucketQueue(1.0), np.zeros(2)) is None

    def test_improvements_wait_for_the_next_step(self):
        assert not _nearest(4).reenter

    def test_tied_batch_is_one_step(self):
        # 0 → {1, 2, 3} at 1.0 and 0 → 4 at 5.0: ρ=2 takes the three ties
        g = Graph.from_edges([0, 0, 0, 0], [1, 2, 3, 4], [1.0, 1.0, 1.0, 5.0], n=5)
        r = solve_with("rho", g, 0, rho=2)
        assert r.buckets_processed == 3  # {0}, {1, 2, 3}, {4}


class TestWindowPolicies:
    def test_delta_star_window_is_pending_min_plus_delta(self):
        bq, dist = _queue([7.5, 2.5, 4.0])
        assert _window(2.0).pick(bq, dist) == 4.5
        assert _window(2.0).pick(BucketQueue(1.0), dist) is None

    def test_radius_bound_is_min_of_distance_plus_radius(self):
        bq, dist = _queue([1.0, 2.0, 6.0])
        radii = np.array([5.0, 0.5, 0.0])
        assert _radius_bound(radii).pick(bq, dist) == 2.5

    def test_radius_bound_never_below_the_pending_min(self):
        bq, dist = _queue([1.0, 2.0])
        assert _radius_bound(np.full(2, np.inf)).pick(bq, dist) == np.inf

    def test_radius_scan_stops_above_the_best_bound(self):
        # the bucket at 9.0 starts above 1.0 + 0.5, so it is never read
        bq, dist = _queue([1.0, 9.0])
        radii = np.array([0.5, -100.0])  # a radius that would win if read
        assert _radius_bound(radii).pick(bq, dist) == 1.5

    def test_in_window_improvements_reenter(self):
        assert _window(1.0).reenter and _radius_bound(np.zeros(1)).reenter


class TestCounterParity:
    """The four counters of each stepper, pinned to the values of the
    per-stepper loops they replaced (same schedule, same work)."""

    @pytest.mark.parametrize("spec, counters", [
        ("rho", (15, 15, 224, 63)),
        ("delta-star", (3, 15, 224, 63)),
        ("radius", (1, 15, 224, 63)),
    ])
    def test_grid(self, grid_graph, spec, counters):
        r = solve_with(spec, grid_graph, 0)
        assert (r.buckets_processed, r.phases, r.relaxations, r.updates) == counters

    @pytest.mark.parametrize("spec, counters", [
        ("rho", (10, 10, 1009, 202)),
        ("rho(rho=8)", (17, 17, 588, 157)),
        # 4 windows: a missing settled floor re-extracts vertices here
        ("delta-star", (4, 13, 627, 150)),
        ("radius", (1, 10, 1009, 202)),
        ("radius(k=1)", (14, 21, 586, 144)),
    ])
    def test_weighted(self, random_weighted_graph, spec, counters):
        r = solve_with(spec, random_weighted_graph, 0)
        assert (r.buckets_processed, r.phases, r.relaxations, r.updates) == counters


class TestSplitCacheUntouched:
    """The policies relax the full CSR: they neither build nor read the
    Δ grid's per-graph split entry, so a tuner probe of ρ, Δ* or radius
    cannot evict the split a service's Δ solves share."""

    @pytest.mark.parametrize("name", PORTED)
    def test_solve_never_builds_a_split(self, random_weighted_graph, split_builds, name):
        solve_with(name, random_weighted_graph, 0)
        assert split_builds == []
        assert "_light_heavy" not in random_weighted_graph.meta

    @pytest.mark.parametrize("name", PORTED)
    def test_resolve_leaves_the_delta_entry_alone(self, random_weighted_graph, split_builds, name):
        g = random_weighted_graph
        solve_with("delta", g, 0)
        entry = g.meta["_light_heavy"]
        d = np.full(g.num_vertices, np.inf)
        d[3] = 0.0
        active = np.zeros(g.num_vertices, dtype=bool)
        active[3] = True
        get_stepper(name).resolve(g, d, active)
        assert g.meta["_light_heavy"] is entry
        assert split_builds == [True]  # the delta solve's own build only


@pytest.mark.parametrize("name", PORTED)
def test_resolve_rejects_a_mismatched_mask(diamond_graph, name):
    with pytest.raises(ValueError, match="active mask must match"):
        get_stepper(name).resolve(diamond_graph, np.zeros(4), np.zeros(5, dtype=bool))
