#!/usr/bin/env python3
"""Tracing walkthrough: where a run's cost and time actually go.

Runs topology-aware connected components on a fat tree under a
recording tracer, then reads the trace three ways:

1. the per-category metrics summary (how many rounds, how long);
2. the round-by-round attribution — each ``round`` span carries the
   Section 2 round cost, the bottleneck edge load, and the
   group/deliver/charge phase split the cluster measured while
   finalizing it, and the span costs sum exactly to the report's cost;
3. the Chrome-trace export — open the written file at
   ``chrome://tracing`` or https://ui.perfetto.dev to browse the
   engine → superstep → round hierarchy on a timeline.

Run:  python examples/trace_run.py
"""

from __future__ import annotations

import repro


def main() -> None:
    tree = repro.fat_tree(4, 4)
    dist = repro.random_graph_distribution(
        tree, num_edges=2_000, policy="proportional", seed=7
    )

    # Everything dispatched inside the block lands in one trace.
    with repro.tracing() as tracer:
        report = repro.run_components(tree, dist, seed=7)

    print(f"{report.task} on {report.topology}: cost {report.cost:.1f} "
          f"in {report.rounds} rounds ({report.wall_time_s:.3f}s)\n")

    # 1. The flat summary: spans aggregated by category.
    summary = repro.span_metrics(tracer)
    print("span category     count   total")
    for category, bucket in sorted(summary["spans"].items()):
        print(f"{category:<16}  {bucket['count']:>5}   "
              f"{bucket['total_s'] * 1e3:8.2f}ms")
    print()

    # 2. Round attribution: the ledger facts ride on the round spans,
    #    and their costs sum to the report's cost exactly.
    rounds = [e for e in tracer.events
              if e.attrs.get("category") == "round"]
    print("round   cost     max-edge-load   group/deliver/charge")
    for event in rounds[:5]:
        attrs = event.attrs
        phases = "/".join(
            f"{attrs[key] * 1e3:.2f}ms"
            for key in ("t_group_s", "t_deliver_s", "t_charge_s")
        )
        print(f"{attrs['round']:>5}   {attrs['round_cost']:<8.1f} "
              f"{attrs['max_edge_load']:>13}   {phases}")
    if len(rounds) > 5:
        print(f"  ... {len(rounds) - 5} more rounds")
    total = sum(event.attrs["round_cost"] for event in rounds)
    print(f"sum of round-span costs: {total:.2f} "
          f"(report.cost = {report.cost:.2f})\n")
    assert abs(total - report.cost) < 1e-9

    # 3. The browsable timeline, metrics embedded alongside.
    path = "components.trace.json"
    repro.write_chrome_trace(path, tracer, metrics=summary)
    print(f"wrote {path} — open it at chrome://tracing or "
          "https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
