"""Experiment F3 — Figure 3: the oriented tree G-dagger and its root.

Figure 3 shows the two shapes of G-dagger: rooted at a compute node
(left) and at a router (right).  The claims behind it (Section 4.1):

* Lemma 4 — out-degree at most one, exactly one root — holds for every
  placement, and the linear-time ``optimal_cover`` equals the best
  ``cover_value`` over every minimal cover (Lemma 8);
* when the root *is* a compute node (one node holds at least half the
  data), routing everything to it is the optimal cartesian-product
  strategy and the protocol switches to it;
* when the root is a router, the packing strategy runs and stays within
  a constant of the max(Theorem 3, Theorem 4) bound.

The bench sweeps the heavy node's share of the data across the
strategy crossover at one half.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table
from repro.data.generators import random_distribution
from repro.engine import run
from repro.topology.builders import two_level
from repro.topology.dagger import (
    build_dagger,
    cover_value,
    minimal_covers,
    optimal_cover,
)

FRACTIONS = (0.10, 0.30, 0.45, 0.55, 0.70, 0.90)
SIZE = 3_000


@pytest.mark.benchmark(group="fig3")
def test_fig3_root_location_drives_strategy(benchmark):
    tree = two_level([3, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)

    def sweep():
        rows = []
        for fraction in FRACTIONS:
            dist = random_distribution(
                tree, r_size=SIZE, s_size=SIZE,
                policy="single-heavy", heavy_fraction=fraction, seed=55,
            )
            sizes = {v: dist.size(v) for v in tree.compute_nodes}
            dagger = build_dagger(tree, sizes)
            report = run(
                "cartesian-product", tree, dist, placement=f"heavy={fraction:g}"
            )
            rows.append((fraction, dagger, report))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = []
    for fraction, dagger, report in rows:
        # Lemma 4 shape invariants.
        roots = [v for v in dagger.tree.nodes if v not in dagger.parent]
        assert roots == [dagger.root]
        # Lemma 8(3): the bottom-up recursion finds the best minimal cover.
        _, best = optimal_cover(dagger)
        enumerated = [cover_value(dagger, c) for c in minimal_covers(dagger)]
        assert best == pytest.approx(min(enumerated))
        strategy = report.meta["result"]["strategy"]
        table.append(
            [
                f"{fraction:.2f}",
                str(dagger.root),
                "compute" if dagger.root_is_compute else "router",
                strategy,
                f"{report.cost:.0f}",
                f"{report.lower_bound:.0f}",
                f"{report.ratio:.2f}",
            ]
        )
        # The strategy crossover sits exactly at the half-data mark.
        if fraction > 0.5:
            assert dagger.root_is_compute
            assert strategy == "gather-to-root"
        if fraction < 0.45:
            assert not dagger.root_is_compute
            assert strategy == "balanced-packing"
        assert report.ratio <= 4.0

    record_table(
        "Figure 3 — G-dagger root vs heavy node share "
        f"(two-level(3,3), |R|=|S|={SIZE})",
        ["heavy share", "root", "root kind", "strategy", "cost", "bound", "ratio"],
        table,
    )
