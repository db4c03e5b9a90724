"""Standard topology/placement suites the benchmarks sweep.

The Table 1 claims are "for every symmetric tree and every initial
placement"; the suite approximates that universal quantifier with the
topology families the paper names (star, two-level tree, fat tree —
Section 2.1 — plus a caterpillar for diameter stress and seeded random
trees) crossed with the placement regimes the analyses distinguish
(uniform, Zipf-skewed, one dominant node, bandwidth-proportional).
"""

from __future__ import annotations

from typing import Iterable

from repro.data.generators import (
    random_distribution,
    random_graph_distribution,
    random_tuple_distribution,
)
from repro.engine import RunPlan
from repro.topology.builders import (
    caterpillar,
    fat_tree,
    random_tree,
    star,
    two_level,
)
from repro.topology.normalize import normalize
from repro.topology.tree import TreeTopology


def standard_topologies(*, include_random: bool = True) -> list[TreeTopology]:
    """The benchmark topology family (all symmetric, finite bandwidths)."""
    topologies = [
        star(8, name="star-uniform(8)"),
        star(8, bandwidth=[1, 1, 2, 2, 4, 4, 8, 8], name="star-hetero(8)"),
        two_level([4, 4], uplink_bandwidth=2.0, name="two-level(4,4)"),
        two_level(
            [2, 4, 6],
            leaf_bandwidth=[4.0, 2.0, 1.0],
            uplink_bandwidth=[2.0, 2.0, 2.0],
            name="two-level-skewed(2,4,6)",
        ),
        fat_tree(2, 3, leaf_bandwidth=1.0, level_scale=2.0),
        caterpillar(4, 2, spine_bandwidth=2.0),
    ]
    if include_random:
        for seed in (11, 23):
            topologies.append(
                normalize(
                    random_tree(12, seed=seed), virtual_bandwidth="sum"
                ).tree
            )
    return topologies


def placement_policies() -> list[str]:
    """The placement regimes crossed with every topology."""
    return ["uniform", "zipf", "single-heavy", "proportional"]


DEFAULT_SUITE_TASKS = ("set-intersection", "cartesian-product", "sorting")

# The multi-input relational tasks need keyed-tuple workloads, not the
# set pairs the paper's three tasks consume; standard_plans builds the
# matching instance per task so the whole catalog sweeps on one grid.
TUPLE_SUITE_TASKS = ("equijoin", "groupby-aggregate")

# The graph tasks run on a placed edge list (tag "E"); standard_plans
# generates one G(n, m) instance per grid cell, sized off the same
# r_size knob the relational instances use.
GRAPH_SUITE_TASKS = ("connected-components", "triangle-count")

ALL_SUITE_TASKS = DEFAULT_SUITE_TASKS + TUPLE_SUITE_TASKS + GRAPH_SUITE_TASKS


def _instance_kind(task: str) -> str:
    if task in TUPLE_SUITE_TASKS:
        return "tuple"
    if task in GRAPH_SUITE_TASKS:
        return "graph"
    return "set"


def standard_plans(
    *,
    r_size: int,
    s_size: int,
    seed: int = 0,
    run_seed: int | None = None,
    tasks: Iterable[str] = DEFAULT_SUITE_TASKS,
    include_random: bool = True,
) -> list[RunPlan]:
    """The full suite as engine plans: (topology × placement × task).

    ``seed`` controls instance generation (which data lands where);
    ``run_seed`` controls protocol randomness (hash functions,
    splitter samples) and defaults to ``seed``.  Set-valued tasks run
    on a shared set-pair instance per grid cell; the relational tasks
    (``equijoin``, ``groupby-aggregate``) get a keyed-tuple instance
    and the graph tasks (``connected-components``, ``triangle-count``)
    a placed G(n, m) edge list on the same topology and placement, so
    every registered task — not just the paper's three — sweeps the
    same grid.  Feed the result to :func:`repro.engine.run_many` to
    evaluate the grid (``workers=n`` deals it over worker processes);
    report order follows the grid order.
    """
    task_list = list(tasks)
    kinds = {_instance_kind(t) for t in task_list}
    plans = []
    for tree in standard_topologies(include_random=include_random):
        for policy in placement_policies():
            instances = {}
            if "set" in kinds:
                instances["set"] = random_distribution(
                    tree,
                    r_size=r_size,
                    s_size=s_size,
                    policy=policy,
                    seed=seed,
                )
            if "tuple" in kinds:
                instances["tuple"] = random_tuple_distribution(
                    tree,
                    r_size=r_size,
                    s_size=s_size,
                    policy=policy,
                    seed=seed,
                )
            if "graph" in kinds:
                instances["graph"] = random_graph_distribution(
                    tree,
                    num_edges=r_size,
                    policy=policy,
                    seed=seed,
                )
            for task in task_list:
                plans.append(
                    RunPlan(
                        task=task,
                        tree=tree,
                        distribution=instances[_instance_kind(task)],
                        seed=seed if run_seed is None else run_seed,
                        placement=policy,
                    )
                )
    return plans
