"""Unit tests for the topology-agnostic baselines."""

import numpy as np
import pytest

from repro.baselines.hypercube import (
    _lattice_shape,
    classic_hypercube_cartesian_product,
)
from repro.baselines.uniform_hash import uniform_hash_intersect
from repro.data.distribution import Distribution
from repro.data.generators import (
    random_distribution,
    random_graph_distribution,
    random_tuple_distribution,
)
from repro.engine import run_with_result
from repro.errors import ProtocolError
from repro.topology.builders import star

# the gathers the planner runs, with the tags each one ships
GATHER_TASKS = [("equijoin", ("R", "S")), ("groupby-aggregate", ("R",))]


class TestGatherBaselines:
    @pytest.mark.parametrize("task, tags", GATHER_TASKS)
    def test_gather_targets_data_rich_node(self, simple_two_level, task, tags):
        dist = random_tuple_distribution(
            simple_two_level, r_size=100, s_size=100,
            policy="single-heavy", seed=7,
        )
        sizes = {
            v: sum(dist.size(v, tag) for tag in tags)
            for v in simple_two_level.compute_nodes
        }
        _, result = run_with_result(task, simple_two_level, dist, protocol="gather")
        assert sizes[result.meta["target"]] == max(sizes.values())

    @pytest.mark.parametrize("task, tags", GATHER_TASKS)
    def test_explicit_target(self, simple_star, task, tags):
        dist = random_tuple_distribution(simple_star, r_size=20, s_size=20, seed=1)
        report, result = run_with_result(
            task, simple_star, dist, protocol="gather", target="v2"
        )
        assert result.meta["target"] == "v2"
        # one round: every other node uploads its tuples over its own
        # link, and v2's link carries all of them down
        bandwidth = {"v1": 1.0, "v2": 2.0, "v3": 4.0, "v4": 8.0}
        uploads = {
            v: sum(dist.size(v, t) for t in tags) for v in ("v1", "v3", "v4")
        }
        expected = max(
            [uploads[v] / bandwidth[v] for v in uploads]
            + [sum(uploads.values()) / bandwidth["v2"]]
        )
        assert report.rounds == 1
        assert report.cost == pytest.approx(expected)

    @pytest.mark.parametrize(
        "task", [task for task, _ in GATHER_TASKS] + ["connected-components"]
    )
    def test_a_target_that_does_not_compute_is_refused(self, simple_star, task):
        if task == "connected-components":
            dist = random_graph_distribution(simple_star, num_edges=30, seed=1)
        else:
            dist = random_tuple_distribution(simple_star, r_size=20, s_size=20, seed=1)
        for target in (*simple_star.routers, "ghost"):
            with pytest.raises(ProtocolError, match="not a compute node"):
                run_with_result(
                    task, simple_star, dist, protocol="gather", target=target
                )

    @pytest.mark.parametrize("task, tags", GATHER_TASKS)
    def test_gather_moves_everything_off_target_once(
        self, simple_two_level, task, tags
    ):
        dist = random_tuple_distribution(
            simple_two_level, r_size=60, s_size=90, policy="zipf", seed=3
        )
        _, result = run_with_result(task, simple_two_level, dist, protocol="gather")
        target = result.meta["target"]
        off_target = sum(
            dist.size(v, tag)
            for v in simple_two_level.compute_nodes
            if v != target
            for tag in tags
        )
        # every off-target tuple enters the target's link exactly once
        (parent,) = simple_two_level.neighbors(target)
        assert result.ledger.round_loads(0).get((parent, target), 0) == off_target


class TestUniformHash:
    def test_correct_intersection(self, any_topology):
        dist = random_distribution(any_topology, r_size=100, s_size=400, seed=1)
        result = uniform_hash_intersect(any_topology, dist, seed=2)
        expected = set(
            np.intersect1d(dist.relation("R"), dist.relation("S")).tolist()
        )
        found: set = set()
        for values in result.outputs.values():
            found |= set(values.tolist())
        assert found == expected

    def test_single_round(self, simple_star):
        dist = random_distribution(simple_star, r_size=50, s_size=50, seed=0)
        assert uniform_hash_intersect(simple_star, dist).rounds == 1

    def test_ignores_bandwidth(self):
        fast = star(4, bandwidth=8.0)
        slow = star(4, bandwidth=[8.0, 8.0, 8.0, 0.5])
        dist = random_distribution(fast, r_size=200, s_size=200, seed=3)
        fast_loads = uniform_hash_intersect(fast, dist, seed=1)
        slow_loads = uniform_hash_intersect(slow, dist, seed=1)
        # identical traffic, different cost: only the bandwidths differ
        assert fast_loads.ledger.round_loads(0) == slow_loads.ledger.round_loads(0)
        assert slow_loads.cost > fast_loads.cost


class TestClassicHypercube:
    def test_lattice_shape_prefers_balanced(self):
        p1, p2 = _lattice_shape(16, 100, 100)
        assert (p1, p2) == (4, 4)

    def test_lattice_shape_skews_with_sizes(self):
        p1, p2 = _lattice_shape(16, 1600, 100)
        assert p1 > p2

    def test_enumerates_all_pairs(self, any_topology):
        dist = random_distribution(any_topology, r_size=50, s_size=50, seed=4)
        result = classic_hypercube_cartesian_product(any_topology, dist)
        produced = sum(o["num_pairs"] for o in result.outputs.values())
        assert produced == 2500

    def test_materialized_pairs(self, simple_star):
        dist = random_distribution(simple_star, r_size=8, s_size=8, seed=5)
        result = classic_hypercube_cartesian_product(
            simple_star, dist, materialize=True
        )
        truth = {
            (int(r), int(s))
            for r in dist.relation("R")
            for s in dist.relation("S")
        }
        found: set = set()
        for output in result.outputs.values():
            if "pairs" in output:
                found |= {tuple(p) for p in output["pairs"].tolist()}
        assert found == truth

    def test_empty_relation(self, simple_star):
        dist = Distribution({"v1": {"R": [1, 2], "S": []}})
        result = classic_hypercube_cartesian_product(simple_star, dist)
        assert sum(o["num_pairs"] for o in result.outputs.values()) == 0
