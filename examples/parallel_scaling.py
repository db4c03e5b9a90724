#!/usr/bin/env python3
"""Walkthrough: the process execution substrate, oracle-verified.

The simulator charges the paper's cost model in a single process; the
``repro/parallel/`` substrate runs the same protocol rounds for real
across worker processes, with the simulated ledger as a byte-identical
oracle.  This example shows every layer of that stack:

1. run a registered protocol on the process backend through the
   ordinary engine facade (``repro.run(..., backend="process")``) and
   check its report matches the simulator run exactly,
2. drive a raw ``ParallelCluster`` round by hand with ``oracle=True``
   and let ``verify_oracle()`` prove the shared-memory workers
   produced byte-identical storage and ledger totals,
3. fan a batch of plans out with ``run_many(..., executor="process")``
   and confirm thread- and process-executed batches agree.

Run:  python examples/parallel_scaling.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.engine import RunPlan, run_many
from repro.parallel import ParallelCluster
from repro.parallel.pool import shutdown_pools


def engine_parity() -> None:
    """Same protocol, both substrates, identical reports."""
    tree = repro.fat_tree(2, 2, leaf_bandwidth=2.0)
    dist = repro.random_distribution(
        tree, r_size=800, s_size=800, intersection_size=200, seed=3
    )
    sim = repro.run("set-intersection", tree, dist, seed=5)
    par = repro.run(
        "set-intersection", tree, dist, seed=5,
        backend="process", num_workers=2,
    )
    print("engine parity (set-intersection, fat-tree(2x2)):")
    print(f"  sim      cost={sim.cost:10.1f}  rounds={sim.rounds}")
    print(f"  process  cost={par.cost:10.1f}  rounds={par.rounds}")
    assert (sim.cost, sim.rounds) == (par.cost, par.rounds)


def raw_round_with_oracle() -> None:
    """One hand-rolled shuffle round, A/B-checked against the sim."""
    tree = repro.two_level([4, 4], leaf_bandwidth=2.0)
    cluster = ParallelCluster(tree, num_workers=2, oracle=True)
    computes = cluster.compute_order
    with cluster.round() as ctx:
        for index, node in enumerate(computes):
            values = np.arange(index * 500, (index + 1) * 500, dtype=np.int64)
            ctx.exchange(
                node, values % len(computes), values,
                tag="shuffle", nodes=computes,
            )
    cluster.verify_oracle()  # raises OracleMismatch on any divergence
    print(
        f"raw round on {tree.name}: cost={cluster.ledger.total_cost():.1f}, "
        "oracle says byte-identical"
    )
    cluster.close()


def batch_executors() -> None:
    """run_many on threads vs the worker-process pool."""
    tree = repro.fat_tree(2, 2, leaf_bandwidth=2.0)
    plans = [
        RunPlan(
            task="sorting",
            tree=tree,
            distribution=repro.random_distribution(
                tree, r_size=600, s_size=600, intersection_size=0, seed=seed
            ),
            seed=seed,
        )
        for seed in (1, 2, 3)
    ]
    threaded = run_many(plans, executor="thread")
    processed = run_many(plans, executor="process", workers=2)
    costs = [report.cost for report in threaded]
    assert costs == [report.cost for report in processed]
    print(f"run_many executors agree on {len(plans)} sorting plans: {costs}")


def main() -> None:
    try:
        engine_parity()
        print()
        raw_round_with_oracle()
        print()
        batch_executors()
    finally:
        shutdown_pools()


if __name__ == "__main__":
    main()
