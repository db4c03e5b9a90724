"""Command-line entry point: reproduce the paper's results from a shell.

Usage::

    python -m repro table1              # the Table 1 suite
    python -m repro compare             # topology-aware vs baselines
    python -m repro topology            # draw the builder topologies
    python -m repro protocols           # the registered protocol catalog
    python -m repro plan --explain      # planner vs gather/worst-order
    python -m repro graphs              # graph workloads vs baselines
    python -m repro serve --queries 500 # warm-session serving (one session)
    python -m repro table1 --r-size 2000 --s-size 2000 --seed 7
    python -m repro table1 --workers 2  # the grid on 2 worker processes

Each command prints the same plain-text tables the benchmark harness
records, so the headline claims can be checked without pytest;
``protocols``, ``compare``, ``graphs``, ``serve`` and ``metrics`` take
``--json`` for machine-consumable output.

Tracing: ``python -m repro trace cc`` runs one task
under the :mod:`repro.obs` tracer and writes a Chrome-trace JSON
(load it at ``chrome://tracing`` or https://ui.perfetto.dev), and every
other command accepts ``--trace FILE`` to record whatever it runs.

Observability: ``python -m repro metrics cc`` runs one task under the
metrics registry and prints the Prometheus exposition text (``--json``
for the raw snapshot, ``--output FILE`` to write it); every other
command accepts ``--metrics FILE`` for the same snapshot and
``--audit {record,strict}`` to check each simulated round against the
Section-2 cost model.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack

from repro.report import aggregate, summarize_reports
from repro.analysis.suites import (
    ALL_SUITE_TASKS,
    standard_plans,
    standard_topologies,
)
from repro.data.generators import random_distribution
from repro.engine import run, run_many
from repro.errors import ReproError
from repro.registry import list_protocols, tasks
from repro.topology.builders import two_level
from repro.topology.render import ascii_tree
from repro.util.text import render_table


def _cmd_table1(args: argparse.Namespace) -> int:
    plans = standard_plans(
        r_size=args.r_size,
        s_size=args.s_size,
        seed=args.seed,
        tasks=ALL_SUITE_TASKS,
    )
    reports = run_many(plans, workers=args.workers)
    if args.verbose:
        print(summarize_reports(reports, title="All runs"))
        print()
    summary = aggregate(reports)
    fmt = lambda value: "n/a" if value is None else f"{value:.2f}"
    rows = [
        [
            task,
            stats["runs"],
            stats["max_rounds"],
            fmt(stats["max_ratio"]),
            fmt(stats["mean_ratio"]),
            fmt(stats["wall_s"]),
        ]
        for task, stats in summary.items()
    ]
    print(
        render_table(
            [
                "task",
                "runs",
                "max rounds",
                "max ratio",
                "mean ratio",
                "wall s",
            ],
            rows,
            title=(
                "Table 1 reproduction "
                f"(|R|={args.r_size}, |S|={args.s_size}, seed={args.seed})"
            ),
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    tree = two_level(
        [4, 4],
        leaf_bandwidth=[8.0, 1.0],
        uplink_bandwidth=[8.0, 1.0],
        name="hetero two-level",
    )
    dist = random_distribution(
        tree,
        r_size=args.r_size,
        s_size=args.s_size,
        policy="proportional",
        seed=args.seed,
    )
    rows = []
    reports = []
    for task, aware_protocol, base_protocol in (
        ("set-intersection", "tree", "uniform-hash"),
        ("cartesian-product", "tree", "classic-hypercube"),
        ("sorting", "wts", "terasort"),
    ):
        aware = run(task, tree, dist, protocol=aware_protocol, seed=args.seed)
        base = run(task, tree, dist, protocol=base_protocol, seed=args.seed)
        reports.extend([aware, base])
        fmt_wall = lambda r: (
            "n/a" if r.wall_time_s is None else f"{r.wall_time_s:.3f}"
        )
        rows.append(
            [
                task,
                f"{aware.cost:.0f}",
                f"{base.cost:.0f}",
                f"{base.cost / aware.cost:.2f}x",
                f"{fmt_wall(aware)}/{fmt_wall(base)}",
            ]
        )
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return 0
    print(
        render_table(
            [
                "task",
                "topology-aware",
                "MPC-style baseline",
                "speedup",
                "wall s (aware/base)",
            ],
            rows,
            title=f"Head-to-head on {tree.name} "
            f"(|R|={args.r_size}, |S|={args.s_size})",
        )
    )
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    for tree in standard_topologies(include_random=False):
        print(f"== {tree.name} ==")
        print(ascii_tree(tree))
        print()
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Run a multi-relation chain join across the standard suite."""
    from repro.plan import chain_catalog, chain_query, optimize
    from repro.plan.executor import execute_plan

    query = chain_query(args.relations)
    rows = []
    for tree in standard_topologies():
        catalog = chain_catalog(
            tree,
            num_relations=args.relations,
            rows=args.rows,
            seed=args.seed,
            policy=args.placement,
        )
        reports = {}
        for strategy in ("optimized", "gather", "worst-order"):
            physical = optimize(query, tree, catalog, strategy=strategy)
            reports[strategy] = execute_plan(
                physical, tree, catalog, seed=args.seed
            )
            if args.explain and strategy == "optimized":
                print(physical.explain())
                print()
        optimized = reports["optimized"]
        rows.append(
            [
                tree.name,
                f"{optimized.cost:.0f}",
                f"{optimized.estimated_cost:.0f}",
                f"{reports['gather'].cost:.0f}",
                f"{reports['worst-order'].cost:.0f}",
                f"{reports['gather'].cost / max(optimized.cost, 1e-9):.2f}x",
            ]
        )
    print(
        render_table(
            [
                "topology",
                "optimized",
                "estimated",
                "gather-everything",
                "worst-order",
                "speedup vs gather",
            ],
            rows,
            title=(
                f"Query planner: {args.relations}-relation chain join, "
                f"{args.rows} rows/relation, {args.placement} placement"
            ),
        )
    )
    return 0


def _cmd_graphs(args: argparse.Namespace) -> int:
    """Graph workloads: topology-aware vs baseline, per suite topology."""
    from repro.data.generators import random_graph_distribution
    from repro.graphs import run_components, run_triangles

    rows = []
    reports = []
    for tree in standard_topologies(include_random=False):
        dist = random_graph_distribution(
            tree,
            num_edges=args.edges,
            policy=args.placement,
            seed=args.seed,
        )
        cells = {}
        for task_label, runner, protocols in (
            ("cc", run_components, ("tree", "uniform-hash", "gather")),
            ("tri", run_triangles, ("optimized", "uniform-hash", "gather")),
        ):
            if not args.json:
                # the text table shows aware vs uniform-hash only; skip
                # the gather runs unless the JSON dump will carry them
                protocols = protocols[:2]
            for protocol in protocols:
                report = runner(
                    tree,
                    dist,
                    protocol=protocol,
                    seed=args.seed,
                    placement=args.placement,
                )
                cells[(task_label, protocol)] = report
                reports.append(report)
        cc_aware = cells[("cc", "tree")]
        cc_base = cells[("cc", "uniform-hash")]
        tri_aware = cells[("tri", "optimized")]
        tri_base = cells[("tri", "uniform-hash")]
        rows.append(
            [
                tree.name,
                f"{cc_aware.cost:.0f}",
                f"{cc_base.cost:.0f}",
                f"{cc_base.cost / max(cc_aware.cost, 1e-9):.2f}x",
                cc_aware.num_supersteps,
                f"{tri_aware.cost:.0f}",
                f"{tri_base.cost:.0f}",
                f"{tri_base.cost / max(tri_aware.cost, 1e-9):.2f}x",
            ]
        )
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return 0
    print(
        render_table(
            [
                "topology",
                "cc tree",
                "cc uniform-hash",
                "cc speedup",
                "cc steps",
                "tri optimized",
                "tri uniform-hash",
                "tri speedup",
            ],
            rows,
            title=(
                f"Graph workloads ({args.edges} edges, "
                f"{args.placement} placement, seed={args.seed})"
            ),
        )
    )
    return 0


def _rack_tree(racks: int):
    """The ``--racks`` topology: ``racks`` racks of ``racks`` leaves."""
    return two_level(
        [racks] * racks,
        leaf_bandwidth=2.0,
        uplink_bandwidth=4.0,
        name=f"fat-tree({racks}x{racks})",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a mixed query workload through one warm session."""
    import time

    from repro.analysis.serve import build_workload
    from repro.session import EngineSession

    tree = _rack_tree(args.racks)
    workload, distributions, (catalog, plan_queries) = build_workload(
        tree, args.queries, seed=args.seed
    )
    start = time.perf_counter()
    task_count = plan_count = 0
    total_cost = 0.0
    with EngineSession(tree, catalog=catalog) as session:
        for query in workload:
            if query.kind == "task":
                report = session.run(
                    query.task,
                    distributions[query.distribution_index],
                    seed=query.seed,
                )
                task_count += 1
            else:
                report = session.run_plan(
                    plan_queries[query.query_index], seed=query.seed
                )
                plan_count += 1
            total_cost += report.cost
        summary = session.summary()
    elapsed = time.perf_counter() - start
    qps = len(workload) / elapsed if elapsed else 0.0
    if args.json:
        print(
            json.dumps(
                {
                    "topology": tree.name,
                    "queries": len(workload),
                    "task_queries": task_count,
                    "plan_queries": plan_count,
                    "seconds": round(elapsed, 6),
                    "qps": round(qps, 2),
                    "total_cost": total_cost,
                    "session": summary,
                },
                indent=2,
            )
        )
        return 0
    artifact = summary["artifact_cache"]
    plan_cache = summary["plan_cache"]
    print(
        render_table(
            [
                "queries",
                "task/plan",
                "seconds",
                "qps",
                "artifact hits/misses",
                "plan hits/misses",
            ],
            [
                [
                    len(workload),
                    f"{task_count}/{plan_count}",
                    f"{elapsed:.2f}",
                    f"{qps:.1f}",
                    f"{artifact['hits']}/{artifact['misses']}",
                    f"{plan_cache['hits']}/{plan_cache['misses']}",
                ]
            ],
            title=(
                f"Warm session serving {tree.name} (seed={args.seed})"
            ),
        )
    )
    return 0


def _one_task_instance(args: argparse.Namespace):
    """Build the (task spec, tree, distribution) triple for trace/metrics."""
    from repro.data.generators import (
        random_graph_distribution,
        random_tuple_distribution,
    )
    from repro.registry import get_task

    task_spec = get_task(args.subcommand or "connected-components")
    tree = _rack_tree(args.racks)
    if task_spec.name in ("connected-components", "triangle-count"):
        dist = random_graph_distribution(
            tree,
            num_edges=args.edges,
            policy=args.placement,
            seed=args.seed,
        )
    elif task_spec.name in ("equijoin", "groupby-aggregate"):
        dist = random_tuple_distribution(
            tree,
            r_size=args.r_size,
            s_size=args.s_size,
            policy=args.placement,
            seed=args.seed,
        )
    else:
        dist = random_distribution(
            tree,
            r_size=args.r_size,
            s_size=args.s_size,
            policy=args.placement,
            seed=args.seed,
        )
    return task_spec, tree, dist


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run one task under the metrics registry; expose the snapshot."""
    from repro.obs import collecting, prometheus_text, write_snapshot

    task_spec, tree, dist = _one_task_instance(args)
    with collecting() as registry:
        report = run(
            task_spec.name,
            tree,
            dist,
            protocol=args.protocol,
            seed=args.seed,
            placement=args.placement,
        )
    snap = registry.snapshot()
    series = sum(
        len(family) for group in snap.values() for family in group.values()
    )
    if args.output:
        try:
            write_snapshot(args.output, snap)
        except OSError as error:
            print(
                f"error: cannot write metrics file: {error}",
                file=sys.stderr,
            )
            return 2
        print(
            f"metrics: {series} series -> {args.output}", file=sys.stderr
        )
    if args.json:
        print(json.dumps(snap, indent=2, allow_nan=False))
    else:
        print(prometheus_text(snap), end="")
    print(
        f"# run: task={report.task} protocol={report.protocol} "
        f"cost={report.cost:.1f} "
        f"rounds={report.rounds}",
        file=sys.stderr,
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one task under the tracer; write a Chrome-trace JSON."""
    from repro.obs import span_metrics, tracing, write_chrome_trace

    task_spec, tree, dist = _one_task_instance(args)
    with tracing() as tracer:
        report = run(
            task_spec.name,
            tree,
            dist,
            protocol=args.protocol,
            seed=args.seed,
            placement=args.placement,
        )
    output = args.output or f"{task_spec.name}.trace.json"
    try:
        payload = write_chrome_trace(
            output, tracer, metrics=span_metrics(tracer)
        )
    except OSError as error:
        print(f"error: cannot write trace file: {error}", file=sys.stderr)
        return 2
    rounds = [
        event
        for event in tracer.events
        if event.attrs.get("category") == "round"
    ]
    print(
        render_table(
            [
                "task",
                "protocol",
                "cost",
                "rounds",
                "wall s",
                "spans",
            ],
            [
                [
                    report.task,
                    report.protocol,
                    f"{report.cost:.1f}",
                    report.rounds,
                    (
                        "n/a"
                        if report.wall_time_s is None
                        else f"{report.wall_time_s:.4f}"
                    ),
                    len(payload["traceEvents"]),
                ]
            ],
            title=(
                f"Trace of {task_spec.name} on {tree.name} "
                f"({len(rounds)} round spans) -> {output}"
            ),
        )
    )
    return 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    if args.json:
        payload = [
            {
                "task": spec.task,
                "name": spec.name,
                "kind": spec.kind,
                "accepts_seed": spec.accepts_seed,
                "topology": spec.topology,
                "description": spec.description,
            }
            for spec in list_protocols()
        ]
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        [
            spec.task,
            spec.name,
            spec.kind,
            "yes" if spec.accepts_seed else "no",
            spec.topology or "any",
            spec.description,
        ]
        for spec in list_protocols()
    ]
    print(
        render_table(
            ["task", "protocol", "kind", "seeded", "topology", "description"],
            rows,
            title=f"Protocol catalog ({len(rows)} protocols, "
            f"{len(tasks())} tasks)",
        )
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Topology-aware MPC reproduction (PODS 2021)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--r-size", type=int, default=2_000)
    parser.add_argument("--s-size", type=int, default=2_000)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "table1: run the plan grid on N worker processes (default: "
            "in this process)"
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print per-instance rows"
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="plan: print the chosen physical plan per topology",
    )
    parser.add_argument(
        "--relations",
        type=int,
        default=3,
        help="plan: number of chain-join relations (default 3)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=1_500,
        help="plan: rows per base relation (default 1500)",
    )
    parser.add_argument(
        "--placement",
        default="proportional",
        choices=["uniform", "zipf", "single-heavy", "proportional"],
        help="plan/graphs/trace/metrics: placement policy for the input data",
    )
    parser.add_argument(
        "--edges",
        type=int,
        default=2_000,
        help=(
            "graphs/trace/metrics: number of edges in the generated "
            "graph (default 2000)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "protocols/compare/graphs/serve/metrics: emit JSON instead "
            "of a text table"
        ),
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=200,
        help="serve: number of mixed workload queries (default 200)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help=(
            "record the command under the repro.obs tracer and write a "
            "Chrome-trace JSON to FILE"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help=(
            "record the command under the repro.obs metrics registry "
            "and write the JSON snapshot to FILE"
        ),
    )
    parser.add_argument(
        "--audit",
        default="off",
        choices=["off", "record", "strict"],
        help=(
            "audit every simulated round against the Section-2 cost "
            "model; 'record' reports violations on exit, 'strict' "
            "aborts on the first one (default off)"
        ),
    )
    parser.add_argument(
        "--racks",
        type=int,
        default=8,
        help=(
            "serve/trace/metrics: fat-tree rack count (topology "
            "fat-tree(NxN))"
        ),
    )
    parser.add_argument(
        "--protocol",
        default=None,
        help=(
            "trace/metrics: protocol name (default: the task's "
            "registered default)"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help=(
            "trace/metrics: output file path (trace default "
            "<task>.trace.json; metrics writes no file by default)"
        ),
    )
    parser.add_argument(
        "command",
        choices=[
            "table1",
            "compare",
            "topology",
            "protocols",
            "plan",
            "graphs",
            "serve",
            "trace",
            "metrics",
        ],
        help="which reproduction to run",
    )
    parser.add_argument(
        "subcommand",
        nargs="?",
        default=None,
        help=(
            "trace/metrics: which task to run (default "
            "connected-components)"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # intermixed: flags may appear between positionals, e.g.
    # ``repro metrics --racks 4 sorting``
    args = parser.parse_intermixed_args(argv)
    if args.command not in ("trace", "metrics"):
        if args.subcommand is not None:
            parser.error(f"unrecognized arguments: {args.subcommand}")
    pooled = args.command == "table1" and args.workers is not None
    if pooled and (args.audit != "off" or args.metrics is not None):
        # the plans' spans and audit checks stay on the workers
        parser.error(
            "--workers cannot be combined with --audit or --metrics: "
            "pooled plans are audited and metered on the worker "
            "processes, not here"
        )
    handlers = {
        "table1": _cmd_table1,
        "compare": _cmd_compare,
        "topology": _cmd_topology,
        "protocols": _cmd_protocols,
        "plan": _cmd_plan,
        "graphs": _cmd_graphs,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
    }
    try:
        return _dispatch(args, handlers)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, handlers: dict) -> int:
    """Run the command under whatever global instrumentation is on.

    ``--trace FILE`` / ``--metrics FILE`` record the whole command and
    write the Chrome-trace / metrics-snapshot JSON on exit (skipped for
    the commands that already own that plumbing); ``--audit`` adds a
    :class:`~repro.obs.CostAuditor` and, in ``record`` mode, turns any
    violation into a non-zero exit.  Their front-ends nest into one run
    context around the command.
    """
    from repro.obs import auditing, collecting, tracing

    tracer = registry = auditor = None
    with ExitStack() as hooks:
        if args.trace is not None and args.command != "trace":
            tracer = hooks.enter_context(tracing())
        if args.metrics is not None and args.command != "metrics":
            registry = hooks.enter_context(collecting())
        if args.audit != "off":
            auditor = hooks.enter_context(
                auditing(strict=args.audit == "strict")
            )
        status = handlers[args.command](args)
    if tracer is not None:
        from repro.obs import span_metrics, write_chrome_trace

        try:
            write_chrome_trace(
                args.trace, tracer, metrics=span_metrics(tracer)
            )
        except OSError as error:
            print(
                f"error: cannot write trace file: {error}", file=sys.stderr
            )
            return 2
        print(
            f"trace: {len(tracer.events)} spans -> {args.trace}",
            file=sys.stderr,
        )
    if registry is not None:
        from repro.obs import write_snapshot

        try:
            snap = write_snapshot(args.metrics, registry)
        except OSError as error:
            print(
                f"error: cannot write metrics file: {error}",
                file=sys.stderr,
            )
            return 2
        series = sum(
            len(family)
            for group in snap.values()
            for family in group.values()
        )
        print(
            f"metrics: {series} series -> {args.metrics}", file=sys.stderr
        )
    if auditor is not None:
        summary = auditor.summary()
        print(
            f"audit: {summary['rounds_checked']} round(s) and "
            f"{summary['bounds_checked']} bound(s) checked, "
            f"{summary['violations']} violation(s)",
            file=sys.stderr,
        )
        if summary["violations"]:
            for violation in auditor.violations[:10]:
                print(
                    f"audit violation [{violation['invariant']}]: "
                    f"{violation['detail']}",
                    file=sys.stderr,
                )
            if status == 0:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
