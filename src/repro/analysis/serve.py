"""Serve-layer benchmark: cold one-shot engine vs warm session (qps).

The session layer (:class:`repro.EngineSession`) exists for one
reason: a serving deployment answers many queries against *one*
topology, and rebuilding topology artifacts and re-running the plan
optimizer per query is pure waste.  This harness quantifies exactly
that waste on a mixed workload of cached-shape queries — task runs
(intersection, equijoin, group-by, sorting over a few pregenerated
placements) interleaved with multi-join plan queries — replayed twice
on a shared fat tree:

* **cold** — every query through the stateless module-level engine
  (``repro.run`` / ``repro.run_plan``): artifacts rebuilt, plans
  re-optimized, per query;
* **warm** — the same queries, same seeds, through one long-lived
  :class:`~repro.session.EngineSession`.

The headline number is throughput (queries/second) and its ratio; the
headline *guarantee* is byte-identity — every warm report, stage
reports and ledger meta included, must equal its cold twin once
wall-clock fields are stripped.  A separate small case replays a slice
of the workload on the ``process`` backend, whose workers verify their
exchanges against the simulated-ledger oracle, so identity is checked
on real parallel execution too.  Results accumulate in
``BENCH_SERVE.json`` (one entry per invocation) and feed the
regression sentinel: identity flips fail, throughput-ratio regressions
warn.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.analysis.speed import fat_tree, trajectory_path, write_trajectory
from repro.data.generators import random_distribution
from repro.engine import run as engine_run
from repro.engine import run_plan as engine_run_plan
from repro.errors import AnalysisError
from repro.plan.logical import chain_query, star_query
from repro.plan.relation import chain_catalog, star_catalog
from repro.session import EngineSession
from repro.topology.tree import TreeTopology

#: Default trajectory file name; lives at the repo root by convention.
TRAJECTORY_FILE = "BENCH_SERVE.json"

#: Minimum warm/cold throughput ratio of the full grid: the session
#: must at least double serving throughput on the mixed workload
#: (measured ~2.9x on the 144-node tree; 2x is the contract).
FULL_MIN_SPEEDUP = 2.0
#: Identity only, timing not gated.  The process-backend case exists to
#: verify identity on real parallel execution, and IPC dominates its
#: wall clock.  The small grid (CI smoke) is one warm/cold sample on a
#: 16-node tree that leaves little fixed cost to amortize: every
#: per-query saving shrinks the ratio from both sides, and a floor on
#: it fails on noise (1.13x against 1.30-1.37x typical).
IDENTITY_ONLY_MIN_SPEEDUP = 0.0

#: Fields stripped before comparing warm and cold reports: wall-clock
#: is the only thing allowed to differ, and the metrics summary embeds
#: registry state (counter totals) rather than query output.
_NONDETERMINISTIC_KEYS = ("wall_time_s", "metrics")


@dataclass
class ServeCase:
    """One cold-vs-warm replay of a serve workload."""

    name: str
    topology: str
    num_queries: int
    cold_seconds: float = 0.0
    warm_seconds: float = 0.0
    identical: bool = False
    cost_elements: float = 0.0
    min_speedup: float = IDENTITY_ONLY_MIN_SPEEDUP
    artifact_cache: dict = field(default_factory=dict)
    plan_cache: dict = field(default_factory=dict)

    @property
    def cold_qps(self) -> float:
        return self.num_queries / self.cold_seconds if self.cold_seconds else 0.0

    @property
    def warm_qps(self) -> float:
        return self.num_queries / self.warm_seconds if self.warm_seconds else 0.0

    @property
    def speedup(self) -> float:
        if self.warm_seconds <= 0:
            return float("inf")
        return self.cold_seconds / self.warm_seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "topology": self.topology,
            "queries": self.num_queries,
            "cold_s": round(self.cold_seconds, 6),
            "warm_s": round(self.warm_seconds, 6),
            "cold_qps": round(self.cold_qps, 2),
            "warm_qps": round(self.warm_qps, 2),
            "speedup": round(self.speedup, 2),
            "min_speedup": self.min_speedup,
            "identical": self.identical,
            "cost_elements": self.cost_elements,
            "artifact_cache": dict(self.artifact_cache),
            "plan_cache": dict(self.plan_cache),
        }


def strip_report(report) -> dict:
    """A report as a nested dict with wall-clock fields removed.

    Works for :class:`~repro.report.RunReport` and
    :class:`~repro.report.PlanReport` alike (plan reports nest stage
    reports; ``asdict`` recurses, the scrub follows).  What remains —
    costs, rounds, bounds, ledger meta, output counts — is exactly the
    deterministic content the byte-identity guarantee covers.
    """

    def scrub(value):
        if isinstance(value, dict):
            return {
                key: scrub(inner)
                for key, inner in value.items()
                if key not in _NONDETERMINISTIC_KEYS
            }
        if isinstance(value, (list, tuple)):
            return [scrub(inner) for inner in value]
        if isinstance(value, np.ndarray):
            # arrays in protocol meta would poison dict equality
            # (ambiguous truth value); lists compare element-wise.
            return value.tolist()
        return value

    return scrub(asdict(report))


@dataclass(frozen=True)
class _Query:
    """One workload cell: a task run or a plan run, fully specified."""

    kind: str  # "task" | "plan"
    task: str | None = None
    distribution_index: int = 0
    query_index: int = 0
    seed: int = 0


def build_workload(
    tree: TreeTopology, num_queries: int, *, rows: int = 200, seed: int = 7
) -> tuple[list[_Query], list, list]:
    """A deterministic mixed workload over pregenerated inputs.

    Every fourth query is a multi-join plan query (round-robin over a
    chain and a star shape — the plan cache's bread and butter); the
    rest cycle the four registered tasks over four placements (zipf,
    uniform, proportional, and a second zipf seed).  Inputs are
    pregenerated so both replays time *serving*, not data generation,
    and seeds vary per query index so hashing-based protocols exercise
    distinct randomness while staying replay-deterministic.
    """
    placements = [
        ("zipf", 0),
        ("uniform", 1),
        ("proportional", 2),
        ("zipf", 3),
    ]
    distributions = [
        random_distribution(
            tree,
            r_size=rows,
            s_size=rows * 2,
            policy=policy,
            seed=seed + offset,
        )
        for policy, offset in placements
    ]
    # One pinned catalog holding both benchmark shapes: chain relations
    # R0..R3 and a star fact/dimension set (disjoint names, one dict).
    catalog = chain_catalog(tree, num_relations=4, rows=rows, seed=seed)
    catalog.update(
        star_catalog(tree, num_satellites=2, rows=rows, seed=seed)
    )
    plan_queries = [chain_query(3), star_query(2), chain_query(4)]
    tasks = ["set-intersection", "equijoin", "groupby-aggregate", "sorting"]
    workload = []
    plan_count = 0
    task_count = 0
    for index in range(num_queries):
        if index % 4 == 3:
            workload.append(
                _Query(
                    kind="plan",
                    query_index=plan_count % len(plan_queries),
                    seed=plan_count % 5,
                )
            )
            plan_count += 1
        else:
            # Cycle tasks and placements on their own counter (the
            # global index skips every fourth slot, which would starve
            # one task forever), rotating the pairing each lap so every
            # task eventually meets every placement.
            workload.append(
                _Query(
                    kind="task",
                    task=tasks[task_count % len(tasks)],
                    distribution_index=(
                        task_count + task_count // len(tasks)
                    )
                    % len(distributions),
                    seed=index % 7,
                )
            )
            task_count += 1
    return workload, distributions, (catalog, plan_queries)


def _replay_cold(
    tree: TreeTopology,
    workload: list[_Query],
    distributions: list,
    plan_inputs,
    *,
    backend: str | None = None,
    num_workers: int | None = None,
) -> tuple[list, float]:
    """Every query through the stateless one-shot engine."""
    catalog, plan_queries = plan_inputs
    reports = []
    start = time.perf_counter()
    for query in workload:
        if query.kind == "task":
            reports.append(
                engine_run(
                    query.task,
                    tree,
                    distributions[query.distribution_index],
                    seed=query.seed,
                    backend=backend,
                    num_workers=num_workers,
                )
            )
        else:
            reports.append(
                engine_run_plan(
                    plan_queries[query.query_index],
                    tree,
                    catalog,
                    seed=query.seed,
                )
            )
    return reports, time.perf_counter() - start


def _replay_warm(
    tree: TreeTopology,
    workload: list[_Query],
    distributions: list,
    plan_inputs,
    *,
    backend: str | None = None,
    num_workers: int | None = None,
) -> tuple[list, float, EngineSession]:
    """The same queries through one long-lived session.

    Session construction (artifact prebuild, pool prestart) is timed
    *inside* the warm window: the comparison is honest end-to-end
    serving time, with the one-time warm-up amortized over the batch.
    """
    catalog, plan_queries = plan_inputs
    reports = []
    start = time.perf_counter()
    with EngineSession(
        tree, catalog=catalog, backend=backend, num_workers=num_workers
    ) as session:
        for query in workload:
            if query.kind == "task":
                reports.append(
                    session.run(
                        query.task,
                        distributions[query.distribution_index],
                        seed=query.seed,
                    )
                )
            else:
                reports.append(
                    session.run_plan(
                        plan_queries[query.query_index], seed=query.seed
                    )
                )
    return reports, time.perf_counter() - start, session


def serve_case(
    name: str,
    tree: TreeTopology,
    num_queries: int,
    *,
    rows: int = 200,
    seed: int = 7,
    backend: str | None = None,
    num_workers: int | None = None,
) -> ServeCase:
    """Replay one workload cold and warm; measure, then compare bytes."""
    workload, distributions, plan_inputs = build_workload(
        tree, num_queries, rows=rows, seed=seed
    )
    cold_reports, cold_seconds = _replay_cold(
        tree,
        workload,
        distributions,
        plan_inputs,
        backend=backend,
        num_workers=num_workers,
    )
    warm_reports, warm_seconds, session = _replay_warm(
        tree,
        workload,
        distributions,
        plan_inputs,
        backend=backend,
        num_workers=num_workers,
    )
    case = ServeCase(
        name=name,
        topology=tree.name,
        num_queries=num_queries,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
    )
    case.identical = all(
        strip_report(cold) == strip_report(warm)
        for cold, warm in zip(cold_reports, warm_reports)
    )
    case.cost_elements = float(
        sum(report.cost for report in warm_reports)
    )
    case.artifact_cache = session.artifact_cache.stats()
    case.plan_cache = session.plan_cache.stats()
    return case


def run_serve_suite(*, small: bool = False, seed: int = 7) -> list[ServeCase]:
    """The committed serve grid: the big sim mix + the process oracle mix.

    Full grid: 1000 mixed queries on a 144-node fat tree (the 2x
    throughput contract), plus 16 queries on the process backend whose
    workers cross-check the simulated ledger (identity only).  Small
    grid: 120 and 8 queries on a 16-node tree for CI smoke, both
    identity only.
    """
    if small:
        sim_tree, sim_queries = fat_tree(4), 120
        min_speedup = IDENTITY_ONLY_MIN_SPEEDUP
        process_tree, process_queries = fat_tree(3), 8
    else:
        sim_tree, sim_queries, min_speedup = fat_tree(12), 1000, FULL_MIN_SPEEDUP
        process_tree, process_queries = fat_tree(3), 16
    cases = []
    case = serve_case(
        "mixed serve workload", sim_tree, sim_queries, seed=seed
    )
    case.min_speedup = min_speedup
    cases.append(case)
    case = serve_case(
        "process-backend oracle mix",
        process_tree,
        process_queries,
        seed=seed,
        backend="process",
        num_workers=2,
    )
    case.min_speedup = IDENTITY_ONLY_MIN_SPEEDUP
    cases.append(case)
    return cases


def check_serve_cases(
    cases: list[ServeCase], *, min_speedup: float | None = None
) -> None:
    """The serve contract: byte-identical answers, bounded slowdown."""
    for case in cases:
        if not case.identical:
            raise AnalysisError(
                f"{case.name} on {case.topology}: warm session reports "
                "diverged from cold one-shot runs — session state leaked "
                "into query results"
            )
        budget = case.min_speedup if min_speedup is None else min_speedup
        if case.speedup < budget:
            raise AnalysisError(
                f"{case.name} on {case.topology}: warm/cold throughput "
                f"ratio {case.speedup:.2f}x under the {budget:.1f}x budget "
                f"(cold {case.cold_seconds:.2f}s vs warm "
                f"{case.warm_seconds:.2f}s) — is the session rebuilding "
                "artifacts or re-optimizing cached plans?"
            )


def write_serve_trajectory(cases: list[ServeCase], *, grid: str, path=None):
    """Append one run to ``BENCH_SERVE.json`` (env: ``BENCH_SERVE_JSON``)."""
    if path is None:
        path = trajectory_path(TRAJECTORY_FILE, "BENCH_SERVE_JSON")
    return write_trajectory(
        cases, grid=grid, path=path, benchmark="bench_serve"
    )


def serve_table(cases: list[ServeCase]) -> tuple[list[str], list[list]]:
    """Headers and rows for the text-table renderers."""
    headers = [
        "workload",
        "topology",
        "queries",
        "cold",
        "warm",
        "cold qps",
        "warm qps",
        "speedup",
        "identical",
    ]
    rows = [
        [
            case.name,
            case.topology,
            case.num_queries,
            f"{case.cold_seconds:.2f}s",
            f"{case.warm_seconds:.2f}s",
            f"{case.cold_qps:.1f}",
            f"{case.warm_qps:.1f}",
            f"{case.speedup:.2f}x",
            "yes" if case.identical else "NO",
        ]
        for case in cases
    ]
    return headers, rows
