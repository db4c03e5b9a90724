"""Experiment S3 — serving throughput of the warm session layer.

Not a paper figure: this guards the session/serving subsystem
(``repro.EngineSession``), which turns the one-shot reproduction
engine into the multi-tenant query service the ROADMAP targets.  A
mixed workload of cached-shape queries — task runs over several
placements interleaved with chain/star plan queries — is replayed
twice on a shared fat tree: cold (the stateless module-level engine,
artifacts rebuilt and plans re-optimized per query) and warm (one
long-lived session sharing topology artifacts and compiled plans).

Claims checked:

* every warm report is **byte-identical** to its cold twin once
  wall-clock fields are stripped — session state never leaks into
  query results; a slice of the workload replays on the ``process``
  backend, whose workers cross-check the simulated-ledger oracle, so
  the guarantee holds on real parallel execution too;
* the warm session serves the full-grid 1000-query mix at **>= 2x**
  the cold throughput (measured ~2.9x on the 144-node tree); the small
  grid checks identity only (one warm/cold sample on a 16-node tree is
  too noisy to gate);
* each run appends to the ``BENCH_SERVE.json`` trajectory at the repo
  root, where ``repro bench check`` warns on throughput-ratio
  regressions and fails on identity flips.

``BENCH_SMALL=1`` shrinks the grid for CI smoke runs.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import record_table
from repro.analysis.serve import (
    check_serve_cases,
    run_serve_suite,
    serve_table,
    write_serve_trajectory,
)

SMALL = bool(os.environ.get("BENCH_SMALL"))
SEED = 7


@pytest.mark.benchmark(group="serve")
def test_warm_session_throughput_and_identity(benchmark):
    cases = benchmark.pedantic(
        lambda: run_serve_suite(small=SMALL, seed=SEED),
        rounds=1,
        iterations=1,
    )
    # identity is a hard gate on every case; the throughput budget is
    # grid-dependent (2x full; identity-only for the small grid and
    # the process oracle mix)
    check_serve_cases(cases)
    trajectory = write_serve_trajectory(
        cases, grid="small" if SMALL else "full"
    )
    headers, rows = serve_table(cases)
    record_table(
        "Serve — warm session vs cold one-shot engine "
        f"(grid={'small' if SMALL else 'full'}, seed={SEED}, "
        f"trajectory: {trajectory.name})",
        headers,
        rows,
    )
    for case in cases:
        benchmark.extra_info[f"{case.topology}.{case.name}.speedup"] = round(
            case.speedup, 2
        )
