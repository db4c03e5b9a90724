#!/usr/bin/env python3
"""Walkthrough: query-level parallelism on worker processes.

The simulator charges the paper's cost model in one process, and a
query is never split across processes.  What runs in parallel is whole
queries, on a persistent pool of worker processes:

1. ``repro.run(..., backend="process")`` runs one query on a pool worker
   and returns the report the simulator returns in this process; the
   caller's trace holds one ``barrier`` span for the wait;
2. ``run_many(..., executor="process")`` deals a batch of plans over the
   pool, and agrees with the thread executor plan for plan.

Run:  python examples/parallel_scaling.py
"""

from __future__ import annotations

import repro
from repro.engine import RunPlan, run_many
from repro.parallel.pool import shutdown_pools


def engine_parity() -> None:
    """Same query, in this process and on a worker, identical reports."""
    tree = repro.fat_tree(2, 2, leaf_bandwidth=2.0)
    dist = repro.random_distribution(
        tree, r_size=800, s_size=800, intersection_size=200, seed=3
    )
    sim = repro.run("set-intersection", tree, dist, seed=5)
    with repro.tracing() as tracer:
        par = repro.run(
            "set-intersection", tree, dist, seed=5,
            backend="process", num_workers=2,
        )
    (wait,) = tracer.events
    print("engine parity (set-intersection, fat-tree(2x2)):")
    print(f"  sim      cost={sim.cost:10.1f}  rounds={sim.rounds}")
    print(f"  process  cost={par.cost:10.1f}  rounds={par.rounds}"
          f"  (waited {wait.duration * 1e3:.1f} ms in {wait.name!r})")
    assert (sim.cost, sim.rounds) == (par.cost, par.rounds)


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
        batch_executors()
    finally:
        shutdown_pools()


if __name__ == "__main__":
    main()
