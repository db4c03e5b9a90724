"""Experiment F2 — Figure 2: the balanced partition in action.

Figure 2 illustrates a balanced partition: α-connected groups of compute
nodes merged until each block holds at least ``|R|`` data.  This bench
sweeps placement skew on a three-rack tree and validates:

* Algorithm 3's output satisfies all four Definition 1 properties at
  every skew level (certified by the verifier);
* the block structure reacts to the placement — heavier skew yields
  fewer, coarser blocks (more α-edges);
* TreeIntersect built on the partition tracks the Theorem 1 bound.

It also times Algorithm 3 itself on wide trees (it is linear-time).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table
from repro.core.intersection.partition import (
    balanced_partition,
    classify_edges,
    verify_balanced_partition,
)
from repro.data.generators import random_distribution
from repro.engine import run
from repro.topology.builders import caterpillar, two_level

EXPONENTS = (0.0, 0.5, 1.0, 2.0, 3.0)
R_SIZE, S_SIZE = 2_000, 10_000


@pytest.mark.benchmark(group="fig2")
def test_fig2_partition_quality_across_skew(benchmark):
    tree = two_level([4, 4, 4], uplink_bandwidth=2.0)

    def sweep():
        rows = []
        for exponent in EXPONENTS:
            dist = random_distribution(
                tree, r_size=R_SIZE, s_size=S_SIZE,
                policy="zipf", zipf_exponent=exponent, seed=33,
            )
            sizes = {v: dist.size(v) for v in tree.compute_nodes}
            blocks = balanced_partition(tree, sizes, R_SIZE)
            violations = verify_balanced_partition(
                tree, sizes, R_SIZE, blocks
            )
            classification = classify_edges(tree, sizes, R_SIZE)
            report = run(
                "set-intersection", tree, dist, placement=f"zipf({exponent})", seed=3
            )
            rows.append(
                (exponent, blocks, violations, classification, report)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = []
    for exponent, blocks, violations, classification, report in rows:
        assert violations == [], (exponent, violations)
        table.append(
            [
                f"{exponent:g}",
                classification.num_alpha,
                classification.num_beta,
                len(blocks),
                f"{report.cost:.0f}",
                f"{report.lower_bound:.0f}",
                f"{report.ratio:.2f}",
            ]
        )
    record_table(
        "Figure 2 — balanced partition vs placement skew "
        f"(two-level(4,4,4), |R|={R_SIZE}, |S|={S_SIZE})",
        ["zipf exp", "α-edges", "β-edges", "blocks", "cost", "bound", "ratio"],
        table,
    )

    # Definition 1 held everywhere; the partition coarsens with skew.
    block_counts = [len(blocks) for _, blocks, _, _, _ in rows]
    assert block_counts[0] >= block_counts[-1]
    # and the protocol stays within the polylog envelope throughout.
    for _, _, _, _, report in rows:
        assert report.ratio <= 6.0


@pytest.mark.benchmark(group="fig2")
def test_fig2_algorithm3_speed(benchmark):
    """Algorithm 3 runs in (near-)linear time: here, a 160-leaf caterpillar."""
    tree = caterpillar(40, 4)
    sizes = {v: (hash(v) % 50) + 1 for v in tree.compute_nodes}
    r_size = sum(sizes.values()) // 4

    blocks = benchmark(lambda: balanced_partition(tree, sizes, r_size))
    assert verify_balanced_partition(tree, sizes, r_size, blocks) == []
    benchmark.extra_info["compute_nodes"] = len(tree.compute_nodes)
    benchmark.extra_info["blocks"] = len(blocks)
