"""Count guard: the multi-set rounds register one column record per stream.

The cartesian tile routing (``route_axis``) registers one
``exchange_multicast_column`` per axis however many ``(segment, owner)``
groups the packing yields, and StarIntersect one multicast record (``R``
to the hashed nodes and Vβ) and at most one unicast record (the Vα
nodes' ``S``).  Counts, not times: a loop over owners would register one
record per group.
"""

import pytest

import repro
from repro.analysis.suites import placement_policies, standard_topologies
from repro.core.cartesian.tree import tree_cartesian_product
from repro.core.intersection.star import star_intersect
from repro.sim import cluster as cluster_module


@pytest.fixture
def records(monkeypatch):
    """``(unicast, multicast)`` stream records of every finalized round."""
    counts = []
    finalize = cluster_module.RoundContext._finalize

    def counting_finalize(context):
        counts.append((len(context._unicast_stream), len(context._multicasts)))
        finalize(context)

    monkeypatch.setattr(cluster_module.RoundContext, "_finalize", counting_finalize)
    return counts


@pytest.mark.parametrize("policy", ["uniform", "zipf", "proportional"])
@pytest.mark.parametrize("tree", standard_topologies(), ids=lambda tree: tree.name)
def test_tile_routing_registers_one_record_per_axis(records, tree, policy):
    # (a single-heavy placement makes the heavy node the dagger root,
    # which gathers instead of routing tiles)
    distribution = repro.random_distribution(
        tree, r_size=300, s_size=300, policy=policy, seed=1
    )
    result = tree_cartesian_product(tree, distribution)
    assert result.meta["strategy"] == "balanced-packing"
    assert records == [(0, 2)]


@pytest.mark.parametrize("policy", placement_policies())
@pytest.mark.parametrize(
    "tree",
    [tree for tree in standard_topologies() if tree.is_star()],
    ids=lambda tree: tree.name,
)
def test_star_intersect_registers_one_record_per_stream(records, tree, policy):
    distribution = repro.random_distribution(
        tree, r_size=200, s_size=600, policy=policy, seed=1
    )
    result = star_intersect(tree, distribution, seed=2)
    assert records == [(1 if result.meta["v_alpha"] else 0, 1)]


def test_star_intersect_without_r_moves_nothing(records):
    """Every hashing weight is zero: no hasher, every node in Vβ."""
    tree = repro.star(4)
    distribution = repro.random_distribution(tree, r_size=0, s_size=90, seed=1)
    result = star_intersect(tree, distribution, seed=2)
    assert records == [(0, 0)]
    assert (result.cost, result.meta["v_alpha"]) == (0.0, [])


@pytest.mark.parametrize("tree", standard_topologies(), ids=lambda tree: tree.name)
@pytest.mark.parametrize(
    "task, records_per_round", [("equijoin", 2), ("groupby-aggregate", 1)]
)
def test_gathers_register_one_run_record_per_relation(
    records, tree, task, records_per_round
):
    distribution = repro.random_tuple_distribution(
        tree, r_size=200, s_size=300, seed=1
    )
    repro.run(task, tree, distribution, protocol="gather")
    assert records == [(records_per_round, 0)]


@pytest.mark.parametrize("tree", standard_topologies(), ids=lambda tree: tree.name)
def test_the_components_gather_registers_one_run_record(records, tree):
    distribution = repro.random_graph_distribution(tree, num_edges=150, seed=1)
    repro.run("connected-components", tree, distribution, protocol="gather")
    assert records == [(1, 0)]
