#!/usr/bin/env python3
"""Walkthrough: topology-aware graph analytics end to end.

The MPC connectivity literature solves graph problems by iterating
shuffle/aggregate supersteps; this example runs that workload family
on the paper's cost model, on a heterogeneous two-rack cluster:

1. place a planted-components graph on the cluster (edges as packed
   64-bit elements, Zipf-skewed across nodes),
2. run hash-to-min connected components through the superstep driver
   and inspect the per-superstep cost table,
3. check the labelling against the planted structure: three
   components of 60 vertices,
4. compare the topology-aware protocol against the textbook
   uniform-hash MPC formulation and the gather baseline,
5. count triangles through the query planner (two equi-join stages;
   the engine's triangle-count verifier is the only check of the
   count) and aggregate degrees with one registered group-by round —
   so the new subsystem's wins are numbers, not claims.

Run:  python examples/graph_analytics.py
"""

from __future__ import annotations

import repro
from repro.engine import run_with_result
from repro.graphs import (
    PlacedGraph,
    run_components,
    run_degrees,
    run_triangles,
)
from repro.util.text import render_table


def main() -> None:
    tree = repro.two_level(
        [4, 4], leaf_bandwidth=[8.0, 1.0], uplink_bandwidth=[8.0, 1.0],
        name="two racks",
    )

    # Three planted components of 60 vertices each; edges land on the
    # cluster Zipf-skewed (most of the graph on a few nodes — the
    # regime where placement-aware shuffles pay off).
    edges = repro.planted_components_graph(3, 60, seed=11)
    graph = PlacedGraph.from_edges(tree, edges, policy="zipf", seed=11)
    print(graph.describe())
    print()

    # Connected components: every superstep is a registered group-by
    # shuffle plus a label-return round, all on one master ledger; the
    # run's meta keeps one report per superstep.
    report, result = run_with_result(
        "connected-components", tree, graph.distribution, protocol="tree", seed=1
    )
    steps = [repro.RunReport.from_dict(step) for step in result.meta["supersteps"]]
    print(
        repro.summarize_reports(
            steps,
            title=f"connected components [tree]: cost {report.cost:.1f} "
            f"over {len(steps)} steps ({report.rounds} rounds)",
        )
    )
    print()

    # The engine already verified the run; check the labelling once
    # more against the planted structure: component i is the vertex
    # block [60 i, 60 (i + 1)), labelled by its least vertex.
    labels = {
        int(vertex): int(label)
        for output in result.outputs.values()
        for vertex, label in output.items()
    }
    assert result.meta["converged"]
    assert labels == {vertex: vertex - vertex % 60 for vertex in range(180)}
    print(
        f"Labelling matches the planted structure: "
        f"{len(set(labels.values()))} components of 60 vertices in "
        f"{len(steps)} steps."
    )
    print()

    # Topology-aware vs the MPC baselines, same instance.
    rows = []
    for protocol in ("tree", "uniform-hash", "gather"):
        flavour = run_components(tree, graph, protocol=protocol, seed=1)
        rows.append(
            [
                protocol,
                f"{flavour.cost:.0f}",
                flavour.rounds,
                f"{flavour.ratio:.1f}",
            ]
        )
    print(
        render_table(
            ["protocol", "cost", "rounds", "cost / bound"],
            rows,
            title=f"Connected components on '{tree.name}'",
        )
    )
    print()

    # Triangle counting: compiled as two equi-join stages through the
    # query planner; the optimized flavour picks a registered equi-join
    # protocol per stage from cost estimates.
    triangles = run_triangles(tree, graph, protocol="optimized", seed=1)
    print(triangles.summarize())
    print()

    # Degrees: one registered group-by round, no new protocol at all.
    degrees = run_degrees(tree, graph, seed=1)
    print(
        f"Degree aggregation: cost {degrees.cost:.0f} vs shared-key "
        f"bound {degrees.lower_bound:.0f} "
        f"(ratio {degrees.ratio:.2f}, {degrees.rounds} round)."
    )


if __name__ == "__main__":
    main()
