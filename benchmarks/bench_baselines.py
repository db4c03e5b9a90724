"""Experiment B1 — topology-aware vs topology-agnostic, head to head.

The introduction's motivating claim: algorithms designed for the uniform
MPC model leave large factors on the table once networks are
heterogeneous and placements are skewed — while on the uniform case the
topology-aware algorithms match them.  Validated on all three tasks:

* on a *uniform star with uniform placement* (the MPC assumption), the
  paper's algorithms are within ~2x of the classic ones;
* on a *heterogeneous tree with skewed placement*, the paper's
  algorithms win by growing factors.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table
from repro.data.generators import random_distribution
from repro.engine import run
from repro.topology.builders import star, two_level

SIZE = 6_000


def _uniform_instance():
    tree = star(8, name="uniform star")
    dist = random_distribution(
        tree, r_size=SIZE, s_size=SIZE, policy="uniform", seed=91
    )
    return tree, dist


def _heterogeneous_instance():
    tree = two_level(
        [4, 4],
        leaf_bandwidth=[8.0, 1.0],
        uplink_bandwidth=[8.0, 1.0],
        name="hetero two-level",
    )
    dist = random_distribution(
        tree, r_size=SIZE, s_size=SIZE, policy="proportional", seed=91
    )
    return tree, dist


@pytest.mark.benchmark(group="baselines")
def test_baselines_head_to_head(benchmark):
    def sweep():
        rows = []
        for setting, (tree, dist) in (
            ("uniform/MPC", _uniform_instance()),
            ("heterogeneous", _heterogeneous_instance()),
        ):
            intersect_aware = run(
                "set-intersection", tree, dist, protocol="tree", seed=5
            )
            intersect_base = run(
                "set-intersection", tree, dist, protocol="uniform-hash", seed=5
            )
            cartesian_aware = run("cartesian-product", tree, dist, protocol="tree")
            cartesian_base = run(
                "cartesian-product", tree, dist, protocol="classic-hypercube"
            )
            sort_aware = run("sorting", tree, dist, protocol="wts", seed=5)
            sort_base = run("sorting", tree, dist, protocol="terasort", seed=5)
            rows.append(
                (
                    setting,
                    (intersect_aware, intersect_base),
                    (cartesian_aware, cartesian_base),
                    (sort_aware, sort_base),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = []
    for setting, intersect, cartesian, sorting in rows:
        for task_name, (aware, base) in (
            ("intersection", intersect),
            ("cartesian", cartesian),
            ("sorting", sorting),
        ):
            table.append(
                [
                    setting,
                    task_name,
                    f"{aware.cost:.0f}",
                    f"{base.cost:.0f}",
                    f"{base.cost / aware.cost:.2f}",
                ]
            )
    record_table(
        f"Baselines — topology-aware vs MPC-style (|R|=|S|={SIZE})",
        ["setting", "task", "aware cost", "baseline cost", "baseline/aware"],
        table,
    )

    uniform_rows, hetero_rows = rows
    # On the MPC case the aware algorithms are competitive: within the
    # small constants their guarantees allow (the wHC's power-of-two
    # squares cost up to ~2x against the classic lattice here).
    for aware, base in (uniform_rows[1], uniform_rows[2], uniform_rows[3]):
        assert aware.cost <= 2.5 * base.cost
    # On the heterogeneous case they win on every task...
    for aware, base in (hetero_rows[1], hetero_rows[2], hetero_rows[3]):
        assert aware.cost < base.cost
    # ...and clearly (>= 2x) on at least two of the three.
    wins = sum(
        base.cost >= 2.0 * aware.cost
        for aware, base in (hetero_rows[1], hetero_rows[2], hetero_rows[3])
    )
    assert wins >= 2
