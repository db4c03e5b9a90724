#!/usr/bin/env python3
"""Quickstart: all three tasks on one topology, costs vs lower bounds.

Builds the Figure 1b two-level tree, places a skewed workload on it, and
runs the paper's three algorithms (TreeIntersect, the Theorem 5 cartesian
product, weighted TeraSort) plus their lower bounds — printing, for each
task, the round count and the cost/bound ratio that Table 1 promises is
a constant (or polylog for intersection).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro


def main() -> None:
    # A small datacenter: two racks of four machines, rack uplinks half
    # as fast as the access links.
    tree = repro.two_level(
        [4, 4], leaf_bandwidth=2.0, uplink_bandwidth=1.0, name="quickstart"
    )
    print("Topology (compute nodes in brackets, link bandwidths on edges):")
    print(repro.ascii_tree(tree))
    print()

    # A skewed initial placement: earlier nodes hold more data.
    dist = repro.random_distribution(
        tree, r_size=2_000, s_size=2_000, policy="zipf", seed=7
    )
    print("Initial placement:")
    print(dist.describe())
    print()

    # One engine call per task: repro.run dispatches through the protocol
    # registry, so the same entry point covers every task and protocol
    # (run ``python -m repro protocols`` for the catalog).  run_many
    # evaluates the batch in this process and preserves order.
    reports = repro.run_many(
        [
            repro.RunPlan(task, tree, dist, seed=1, placement="zipf")
            for task in ("set-intersection", "cartesian-product", "sorting")
        ]
    )
    print(
        repro.summarize_reports(
            reports, title="Topology-aware algorithms vs their lower bounds"
        )
    )
    print()
    print(
        "Table 1 check: intersection ran in "
        f"{reports[0].rounds} round, cartesian product in "
        f"{reports[1].rounds} round, sorting in {reports[2].rounds} rounds; "
        "every ratio is a small constant."
    )


if __name__ == "__main__":
    main()
