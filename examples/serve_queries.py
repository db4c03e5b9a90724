#!/usr/bin/env python3
"""Walkthrough: serving many queries from one warm engine session.

The paper's cost model is parameterized entirely by the network
topology — which makes the topology the natural unit of *session*
state for a serving engine.  This example stands up an
:class:`repro.EngineSession` pinned to a fat tree and drives it the
way a multi-tenant query service would:

1. single warm runs (``session.run``): topology artifacts — routing
   index, Steiner memos, compute orders — are built once at session
   construction and shared by every query;
2. cached plan queries (``session.run_plan``): the second execution of
   a query shape skips the optimizer's join-order and protocol search
   entirely (watch the plan-cache hit counter);
3. a served batch (``session.run_many``) with the serve layer's two
   traffic controls — *lower-bound admission* (queries whose certified
   minimum cost exceeds the budget are rejected before running) and
   *cheapest-bound-first scheduling*;
4. the cold-vs-warm comparison: the same query through the stateless
   one-shot engine, byte-identical answer, measurably slower.

Run:  python examples/serve_queries.py
"""

from __future__ import annotations

import time

import repro
from repro.plan import chain_catalog, chain_query
from repro.util.text import render_table


def main() -> None:
    tree = repro.fat_tree(2, 4, name="serving fabric")
    placements = [("zipf", 0), ("uniform", 1), ("zipf", 2)]
    workload = [
        repro.random_distribution(
            tree, r_size=400, s_size=400, policy=policy, seed=seed
        )
        for policy, seed in placements
    ]
    catalog = chain_catalog(tree, num_relations=3, rows=400, seed=0)

    # -- 1. a warm session: artifacts built once, at construction ------
    with repro.EngineSession(tree, catalog=catalog) as session:
        rows = []
        for (policy, seed), dist in zip(placements, workload):
            for task in ("set-intersection", "equijoin"):
                report = session.run(task, dist)
                rows.append(
                    [
                        task,
                        f"{policy} (seed {seed})",
                        f"{report.cost:.0f}",
                        report.rounds,
                    ]
                )
        print(
            render_table(
                ["task", "placement", "cost", "rounds"],
                rows,
                title=f"Warm task runs on {tree.name}",
            )
        )
        print()

        # -- 2. plan caching: second compile is a lookup ---------------
        query = chain_query(3)
        first = session.run_plan(query)
        again = session.run_plan(query)
        stats = session.plan_cache.stats()
        print(
            f"plan query twice: cost {first.cost:.0f} then "
            f"{again.cost:.0f} (identical), plan cache "
            f"{stats['hits']} hit / {stats['misses']} miss"
        )
        print()

        # -- 3. a served batch with admission + scheduling -------------
        batch = [
            {"task": "set-intersection", "distribution": workload[0]},
            {"task": "cartesian-product", "distribution": workload[1]},
            {"task": "sorting", "distribution": workload[2]},
        ]
        # Every task carries a lower bound.  A tight budget rejects the
        # query with the largest bound before spending anything on it;
        # the admitted rest run cheapest bound first.  These three
        # bounds are the paper's worst-case theorems, so a rejected
        # query might still have cost less than its bound (ROADMAP
        # item 1(b) makes bounds say which kind they are).
        bounds = [session.lower_bound(plan) for plan in batch]
        budget = sorted(bounds)[1] + 1  # admit the two cheapest
        reports = session.run_many(batch, max_bound=budget)
        rows = [
            [
                plan["task"],
                f"{bound:.0f}",
                "rejected" if report is None else f"cost {report.cost:.0f}",
            ]
            for plan, bound, report in zip(batch, bounds, reports)
        ]
        print(
            render_table(
                ["task", "lower bound", "outcome"],
                rows,
                title=f"Served batch (admission budget {budget:.0f})",
            )
        )
        print()
        summary = session.summary()

    # -- 4. cold twin: same answer, rebuilt state ----------------------
    started = time.perf_counter()
    cold = repro.run("set-intersection", tree, workload[0])
    cold_s = time.perf_counter() - started
    with repro.EngineSession(tree) as session:
        started = time.perf_counter()
        warm_report = session.run("set-intersection", workload[0])
        warm_s = time.perf_counter() - started
    print(
        f"cold one-shot: {cold_s * 1000:.1f}ms, warm session: "
        f"{warm_s * 1000:.1f}ms, identical cost/rounds: "
        f"{(cold.cost, cold.rounds) == (warm_report.cost, warm_report.rounds)}"
    )
    print(
        f"session summary: {summary['runs']} runs, artifact cache "
        f"{summary['artifact_cache']['hits']} hits / "
        f"{summary['artifact_cache']['misses']} miss"
    )


if __name__ == "__main__":
    main()
