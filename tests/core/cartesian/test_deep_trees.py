"""G-dagger passes on a tree deeper than Python's recursion limit.

A caterpillar with a 1 500-router spine and these inputs orients into a
G-dagger 1 000 levels deep, with a leaf hanging off every level.
Every bottom-up pass (the bearing flags and Algorithm 5's sweeps, the
optimal cover, the packing merge) loops over ``Dagger.postorder()``,
so no pass recurses.
"""

import sys

import pytest

import repro
from repro.core.cartesian.packing import coverage_report, pack_by_dagger
from repro.core.cartesian.tree_packing import balanced_packing_tree
from repro.data.generators import random_distribution
from repro.topology.builders import caterpillar
from repro.topology.dagger import build_dagger, cover_value, optimal_cover

N = 2000


@pytest.fixture
def frozen_recursion_limit(monkeypatch):
    """Fail on any attempt to change the recursion limit; yield the limit."""

    def refuse(limit):
        raise AssertionError(f"sys.setrecursionlimit({limit}) called")

    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    yield limit
    assert sys.getrecursionlimit() == limit


def test_cartesian_product_on_a_deep_caterpillar(frozen_recursion_limit):
    tree = caterpillar(1500, 1)
    dist = random_distribution(tree, r_size=N, s_size=N, seed=1)
    report = repro.run("cartesian-product", tree, dist)
    assert report.cost > 0
    assert sys.getrecursionlimit() == frozen_recursion_limit


def test_dagger_passes_on_a_deep_caterpillar(frozen_recursion_limit):
    tree = caterpillar(1500, 1)
    dist = random_distribution(tree, r_size=N, s_size=N, seed=1)
    sizes = {v: dist.size(v, "R") + dist.size(v, "S") for v in tree.compute_nodes}
    dagger = build_dagger(tree, sizes)

    cover, value = optimal_cover(dagger)
    assert value == pytest.approx(cover_value(dagger, cover))

    plan = balanced_packing_tree(dagger, 2 * N)
    tiles = pack_by_dagger(dagger, plan.dims, N, N)
    assert coverage_report(tiles, N, N)["grid_cells"] == N * N

    order = dagger.postorder()
    assert sorted(order, key=str) == sorted(tree.nodes, key=str)
    assert order[-1] == dagger.root
