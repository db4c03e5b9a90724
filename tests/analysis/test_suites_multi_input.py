"""The standard grid covers the multi-input relational tasks too."""

import pytest

import repro
from repro.analysis.suites import (
    ALL_SUITE_TASKS,
    DEFAULT_SUITE_TASKS,
    GRAPH_SUITE_TASKS,
    TUPLE_SUITE_TASKS,
    standard_plans,
)
from repro.analysis.sweeps import Sweep
from repro.data.generators import random_tuple_distribution
from repro.engine import run_many
from repro.topology.builders import two_level


class TestSuiteGrid:
    def test_all_tasks_cover_the_catalog(self):
        assert set(ALL_SUITE_TASKS) == (
            set(DEFAULT_SUITE_TASKS)
            | set(TUPLE_SUITE_TASKS)
            | set(GRAPH_SUITE_TASKS)
        )
        for task in ALL_SUITE_TASKS:
            assert repro.get_task(task).name == task

    def test_standard_plans_include_relational_tasks(self):
        plans = standard_plans(
            r_size=60,
            s_size=60,
            seed=0,
            tasks=ALL_SUITE_TASKS,
            include_random=False,
        )
        tasks = {plan.task for plan in plans}
        assert "equijoin" in tasks
        assert "groupby-aggregate" in tasks
        # one plan per (topology, policy, task)
        per_task = [p for p in plans if p.task == "equijoin"]
        assert len(per_task) == len(plans) // len(ALL_SUITE_TASKS)

    def test_relational_plans_execute_and_verify(self):
        plans = [
            plan
            for plan in standard_plans(
                r_size=80,
                s_size=80,
                seed=3,
                tasks=TUPLE_SUITE_TASKS,
                include_random=False,
            )
        ]
        reports = run_many(plans[:8])
        for report in reports:
            assert report.task in TUPLE_SUITE_TASKS
            assert report.rounds >= 1
            # satellite: the group-by bound is registered, so every
            # relational report has a real (possibly zero) bound field
            assert report.lower_bound >= 0.0


class TestTupleGenerator:
    def test_sizes_and_tags(self):
        tree = two_level([2, 2])
        dist = random_tuple_distribution(
            tree, r_size=40, s_size=70, key_space=8, seed=2
        )
        assert dist.total("R") == 40
        assert dist.total("S") == 70

    def test_policies(self):
        tree = two_level([2, 2], uplink_bandwidth=2.0)
        for policy in ("uniform", "zipf", "single-heavy", "proportional"):
            dist = random_tuple_distribution(
                tree, r_size=30, s_size=30, policy=policy, seed=1
            )
            assert dist.total() == 60

    def test_unknown_policy(self):
        tree = two_level([2, 2])
        with pytest.raises(repro.DistributionError):
            random_tuple_distribution(
                tree, r_size=10, s_size=10, policy="bogus"
            )


class TestSweepOpts:
    def test_run_protocols_forwards_opts(self):
        tree = two_level([2, 2], uplink_bandwidth=1.0)

        def make_instance(x):
            return tree, random_tuple_distribution(
                tree, r_size=int(x), s_size=int(x), key_space=16, seed=0
            )

        sweep = Sweep("join sweep").run_protocols(
            [40, 80],
            make_instance,
            task="equijoin",
            protocols=["tree", "gather"],
            opts={"payload_bits": 20},
        )
        assert set(sweep.series) >= {"tree", "gather", "lower-bound"}
        assert len(sweep.series["tree"]) == 2

    def test_run_protocols_aggregate_op(self):
        tree = two_level([2, 2], uplink_bandwidth=1.0)

        def make_instance(x):
            return tree, random_tuple_distribution(
                tree, r_size=int(x), s_size=10, key_space=8, seed=0
            )

        sweep = Sweep().run_protocols(
            [30],
            make_instance,
            task="groupby-aggregate",
            protocols=["tree", "uniform-hash"],
            opts={"op": "max"},
        )
        assert len(sweep.series["uniform-hash"]) == 1
