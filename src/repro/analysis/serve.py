"""The serve mix: a deterministic mixed workload and its identity form.

:func:`build_workload` is the query mix ``python -m repro serve``
replays through one warm :class:`~repro.session.EngineSession`: task
runs (intersection, equijoin, group-by, sorting over a few
pregenerated placements) interleaved with multi-join plan queries.
:func:`strip_report` is the form warm-vs-cold identity checks compare:
a report with its wall-clock fields removed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.data.generators import random_distribution
from repro.plan.logical import chain_query, star_query
from repro.plan.relation import chain_catalog, star_catalog
from repro.topology.tree import TreeTopology

#: Fields stripped before comparing warm and cold reports: wall-clock
#: is the only thing allowed to differ.
_NONDETERMINISTIC_KEYS = ("wall_time_s",)


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
) -> tuple[list[_Query], list, tuple]:
    """A deterministic mixed workload over pregenerated inputs.

    Every fourth query is a multi-join plan query (round-robin over
    three plan shapes: a 3-relation chain, a 2-satellite star and a
    4-relation chain — the plan cache's bread and butter); the rest
    cycle the four registered tasks over four placements (zipf,
    uniform, proportional, and a second zipf seed).  Inputs are
    pregenerated so a replay times *serving*, not data generation, and
    seeds vary per query index so hashing-based protocols exercise
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
    # One pinned catalog holding both plan families: chain relations
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
