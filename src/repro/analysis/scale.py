"""Scaling benchmark of the process substrate (workers × workload grid).

This harness asks: *does adding worker processes make a round faster,
without changing a single byte of its outcome?*  Every grid cell drives
one prepared hot-path round — the uniform-hash relational shuffle and
the connected-components superstep shuffle from
:mod:`repro.analysis.speed` — through
:class:`~repro.parallel.backend.ParallelCluster` at 1, 2, 4 and 8
worker ranks, and for each cell:

* times the round (best of ``repeats``, pool pre-warmed so process
  startup is excluded — that cost is amortized across a protocol's
  rounds in real use), and
* replays the identical round against the simulated ledger
  (``oracle=True``) asserting byte-identical storage, received counts
  and per-edge loads.

Byte-identity is asserted on *every* cell, always.  Speedup assertions
are honest about the machine: a grid run on fewer cores than worker
ranks cannot speed up, so :func:`check_scale_cases` only enforces the
monotone-speedup contract on cells whose rank count the CPU can
actually host (``os.cpu_count()``), and the trajectory entry records
the core count so historical rows are interpretable.

Results accumulate in ``BENCH_SCALE.json`` at the repo root.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.speed import (
    fat_tree,
    prepare_components,
    prepare_uniform_hash,
    round_phases,
    trajectory_path,
    write_trajectory,
)
from repro.errors import AnalysisError
from repro.obs.tracer import tracing
from repro.parallel.backend import ParallelCluster
from repro.parallel.oracle import OracleMismatch
from repro.parallel.pool import get_pool
from repro.topology.tree import TreeTopology

#: Default trajectory file name; lives at the repo root by convention.
TRAJECTORY_FILE = "BENCH_SCALE.json"

#: Multi-worker cells must beat the 1-worker baseline by this factor
#: (only enforced where the CPU actually has the cores; see
#: :func:`check_scale_cases`).
MIN_PARALLEL_SPEEDUP = 1.2

#: Tolerated regression when going from ``k`` to ``2k`` workers before
#: the monotonicity check fails (scheduling noise allowance).
MONOTONE_TOLERANCE = 0.85


@dataclass
class ScaleCase:
    """One grid cell: a workload on a topology at one worker count."""

    name: str
    topology: str
    num_compute_nodes: int
    num_elements: int
    num_workers: int
    seconds: float = 0.0
    #: The 1-worker time of the same (workload, topology) pair; filled
    #: in by :func:`run_scale_suite` once the baseline cell has run.
    baseline_seconds: float = 0.0
    identical: bool = False
    mismatch: str = ""
    cost_elements: float = 0.0
    #: Tracer-derived group/deliver/charge split of one traced round at
    #: this worker count (master-side attribution).
    phases: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Speedup over the 1-worker cell of the same workload."""
        if self.seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "topology": self.topology,
            "nodes": self.num_compute_nodes,
            "elements": self.num_elements,
            "workers": self.num_workers,
            "seconds": round(self.seconds, 6),
            "baseline_s": round(self.baseline_seconds, 6),
            "speedup": round(self.speedup, 2),
            "cost_elements": self.cost_elements,
            "identical": self.identical,
            "phases": dict(self.phases),
        }


def _run_parallel_round(
    tree: TreeTopology, prepared: list, pool, *, oracle: bool
) -> tuple[float, ParallelCluster]:
    """One prepared round on the process substrate; returns (seconds, cluster)."""
    cluster = ParallelCluster(tree, pool=pool, oracle=oracle)
    start = time.perf_counter()
    with cluster.round() as ctx:
        for node, targets, payload in prepared:
            ctx.exchange(node, targets, payload, tag="recv")
    return time.perf_counter() - start, cluster


def time_scale_case(
    name: str,
    tree: TreeTopology,
    prepared: list,
    num_workers: int,
    *,
    seed: int = 7,
    repeats: int = 3,
) -> ScaleCase:
    """Best-of-``repeats`` round time at ``num_workers`` ranks + identity.

    Timing runs skip the oracle (its shadow replay would serialize the
    round we are timing); one extra oracle run then proves the cell
    byte-identical to the simulated ledger.
    """
    case = ScaleCase(
        name=name,
        topology=tree.name,
        num_compute_nodes=tree.num_compute_nodes,
        num_elements=int(sum(len(entry[-1]) for entry in prepared)),
        num_workers=num_workers,
    )
    pool = get_pool(num_workers, seed=seed)
    best = float("inf")
    cluster = None
    for _ in range(repeats):
        elapsed, cluster = _run_parallel_round(
            tree, prepared, pool, oracle=False
        )
        best = min(best, elapsed)
        cluster.close()
    case.seconds = best
    # Attribute one traced round (oracle off — the shadow replay would
    # distort the phase timings) before the byte-identity run.
    with tracing() as tracer:
        _, cluster = _run_parallel_round(tree, prepared, pool, oracle=False)
        cluster.close()
    case.phases = round_phases(tracer)
    try:
        _, cluster = _run_parallel_round(tree, prepared, pool, oracle=True)
        cluster.verify_oracle()
        case.cost_elements = cluster.ledger.total_cost()
        case.identical = True
    except OracleMismatch as error:
        case.mismatch = str(error)
    finally:
        if cluster is not None:
            cluster.close()
    return case


def run_scale_suite(
    *,
    small: bool = False,
    seed: int = 7,
    repeats: int = 3,
    workers_grid: tuple | None = None,
) -> list[ScaleCase]:
    """The scaling grid: workloads × fat trees × worker counts.

    The full grid is the acceptance configuration — 64- and 256-node
    fat trees, ~10^6-element shuffles, 1/2/4/8 workers; ``small=True``
    is the CI smoke shape (64 nodes, 200k elements, 1 and 2 workers).
    """
    if small:
        grids = [(8,)]  # 64 nodes
        num_elements = 200_000
        workers = workers_grid or (1, 2)
    else:
        grids = [(8,), (16,)]  # 64 and 256 nodes
        num_elements = 1_000_000
        workers = workers_grid or (1, 2, 4, 8)
    workloads = [prepare_uniform_hash, prepare_components]
    cases = []
    for (num_racks,) in grids:
        tree = fat_tree(num_racks)
        for prepare in workloads:
            prepared, label = prepare(tree, num_elements, seed)
            baseline = None
            for num_workers in workers:
                case = time_scale_case(
                    label,
                    tree,
                    prepared,
                    num_workers,
                    seed=seed,
                    repeats=repeats,
                )
                if baseline is None:
                    baseline = case.seconds
                case.baseline_seconds = baseline
                cases.append(case)
    return cases


def check_scale_cases(
    cases: list[ScaleCase],
    *,
    require_speedup: bool | None = None,
    available_cpus: int | None = None,
) -> None:
    """The harness's contract: identity always, speedup where possible.

    Byte-identity against the simulated ledger is asserted on every
    cell unconditionally — that is the substrate's correctness claim.
    The performance claim (multi-worker cells beat the 1-worker
    baseline, and more workers never regress past
    :data:`MONOTONE_TOLERANCE`) is physics-bound: it is only enforced
    on cells whose rank count fits in ``available_cpus`` (default
    ``os.cpu_count()``).  ``require_speedup`` forces the check on
    (tests) or off (cross-machine reruns) regardless of core count.
    """
    for case in cases:
        if not case.identical:
            raise AnalysisError(
                f"{case.name} on {case.topology} at {case.num_workers} "
                "worker(s): process backend diverged from the simulated "
                f"ledger: {case.mismatch or 'oracle check did not run'}"
            )
    cpus = available_cpus if available_cpus is not None else os.cpu_count()
    by_workload: dict[tuple, list[ScaleCase]] = {}
    for case in cases:
        by_workload.setdefault((case.name, case.topology), []).append(case)
    for (name, topology), group in by_workload.items():
        group = sorted(group, key=lambda c: c.num_workers)
        previous = None
        for case in group:
            checkable = (
                require_speedup
                if require_speedup is not None
                else cpus is not None and case.num_workers <= cpus
            )
            if not checkable or case.num_workers == 1:
                previous = case
                continue
            if case.speedup < MIN_PARALLEL_SPEEDUP:
                raise AnalysisError(
                    f"{name} on {topology}: {case.num_workers} workers "
                    f"ran at {case.speedup:.2f}x the 1-worker time, under "
                    f"the {MIN_PARALLEL_SPEEDUP:.1f}x budget "
                    f"({case.seconds:.3f}s vs {case.baseline_seconds:.3f}s)"
                )
            if (
                previous is not None
                and previous.num_workers > 1
                and case.seconds > previous.seconds / MONOTONE_TOLERANCE
            ):
                raise AnalysisError(
                    f"{name} on {topology}: {case.num_workers} workers "
                    f"({case.seconds:.3f}s) regressed past "
                    f"{previous.num_workers} workers "
                    f"({previous.seconds:.3f}s)"
                )
            previous = case


def write_scale_trajectory(
    cases: list[ScaleCase],
    *,
    grid: str,
    path: str | os.PathLike | None = None,
) -> Path:
    """Append one run to ``BENCH_SCALE.json`` (env: ``BENCH_SCALE_JSON``)."""
    if path is None:
        path = trajectory_path(TRAJECTORY_FILE, "BENCH_SCALE_JSON")
    return write_trajectory(
        cases,
        grid=grid,
        path=path,
        benchmark="bench_scale",
        extra={"cpu_count": os.cpu_count()},
    )


def scale_table(cases: list[ScaleCase]) -> tuple[list[str], list[list]]:
    """Headers and rows for the text-table renderers."""
    headers = [
        "shuffle",
        "topology",
        "nodes",
        "elements",
        "workers",
        "time",
        "speedup",
        "identical",
    ]
    rows = [
        [
            case.name,
            case.topology,
            case.num_compute_nodes,
            case.num_elements,
            case.num_workers,
            f"{case.seconds * 1000:.1f}ms",
            f"{case.speedup:.2f}x",
            "yes" if case.identical else "NO",
        ]
        for case in cases
    ]
    return headers, rows
