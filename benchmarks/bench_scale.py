"""Experiment S2 — scaling of the process execution substrate.

Not a paper figure: this guards the real-parallel substrate added on
top of the simulator.  The two prepared hot-path shuffles of
:mod:`repro.analysis.speed` (the uniform-hash relational shuffle and
the connected-components superstep shuffle, ~10^6 elements on 64- and
256-node fat trees) run through :class:`repro.parallel.backend.ParallelCluster` at 1, 2, 4 and
8 worker ranks.

Claims checked:

* every cell of the grid is **byte-identical** to the simulated
  ledger: same per-edge loads, same received counts, same per-node
  storage bytes (the ``oracle=True`` shadow replay) — asserted
  unconditionally;
* on machines whose core count can host the rank count, multi-worker
  cells beat the 1-worker baseline by at least ``1.2x`` and adding
  workers never regresses past the scheduling-noise tolerance —
  :func:`repro.analysis.scale.check_scale_cases` skips the speedup
  (never the identity) assertions for rank counts the CPU cannot
  host, and the trajectory row records ``cpu_count`` so historical
  entries stay interpretable;
* each run appends to the ``BENCH_SCALE.json`` perf trajectory at the
  repo root.

``BENCH_SMALL=1`` shrinks the grid for CI smoke runs (64 nodes,
200k elements, 1 and 2 workers).
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import record_table
from repro.analysis.scale import (
    check_scale_cases,
    run_scale_suite,
    scale_table,
    write_scale_trajectory,
)
from repro.parallel.pool import shutdown_pools

SMALL = bool(os.environ.get("BENCH_SMALL"))
SEED = 7


@pytest.mark.benchmark(group="scale")
def test_process_substrate_scaling_and_identity(benchmark):
    def suite():
        try:
            return run_scale_suite(small=SMALL, seed=SEED)
        finally:
            shutdown_pools()

    cases = benchmark.pedantic(suite, rounds=1, iterations=1)
    check_scale_cases(cases)
    trajectory = write_scale_trajectory(cases, grid="small" if SMALL else "full")
    headers, rows = scale_table(cases)
    record_table(
        "Scale — process substrate vs worker count, oracle-verified "
        f"(grid={'small' if SMALL else 'full'}, seed={SEED}, "
        f"cpus={os.cpu_count()}, trajectory: {trajectory.name})",
        headers,
        rows,
    )
    for case in cases:
        key = f"{case.topology}.{case.name}.w{case.num_workers}.speedup"
        benchmark.extra_info[key] = round(case.speedup, 2)
