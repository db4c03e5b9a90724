"""The per-link cost kernel against the per-edge reference model.

``repro.plan.cost`` scores a stage with a handful of array expressions
over per-link side sums; ``tests/reference_cost.py`` keeps the dict and
per-edge loops it replaced.  Both evaluate the same IEEE expressions
per link, so estimates are compared with ``==``.  The one exception is
a *tree* estimate over fractional profiles: the reference adds its
``total_weight`` up in set order, the kernel in compute order (see the
reference's docstring), so there — and only there — the comparison is
``rel=1e-12``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError, TopologyError
from repro.plan.cost import (
    CostModel,
    RelationStats,
    estimate_gather_cost,
    estimate_tree_cost,
    estimate_uniform_hash_cost,
    placement_profile,
)
from repro.plan.logical import (
    Filter,
    GroupBy,
    Join,
    JoinCondition,
    Scan,
    chain_query,
    star_query,
)
from repro.plan.optimizer import STRATEGIES, optimize
from repro.plan.relation import chain_catalog, star_catalog
from repro.topology.builders import star, two_level
from repro.topology.tree import TreeTopology
from tests import reference_cost
from tests.strategies import BANDWIDTH_CHOICES, tree_topologies

PROTOCOLS = ("gather", "uniform-hash", "tree")
KINDS = ("zero", "one-hot", "integer", "fractional")

NAMED_SHAPES = [
    TreeTopology({}, ["solo"], name="single-node"),
    star(5),
    TreeTopology.from_undirected(
        {(f"p{i}", f"p{i + 1}"): 2.0**(i % 3) for i in range(8)},
        ["p0", "p8"],
        name="deep-path",
    ),
]


@st.composite
def cost_trees(draw, *, symmetric: bool = True) -> TreeTopology:
    """A named shape or a random tree, under an arbitrary compute set —
    inner nodes may compute, leaves may route (whole subtrees of routers)."""
    tree = draw(
        st.one_of(st.sampled_from(NAMED_SHAPES), tree_topologies(min_nodes=2))
    )
    nodes = sorted(tree.nodes, key=str)
    tree = tree.with_compute_nodes(
        draw(st.sets(st.sampled_from(nodes), min_size=1))
    )
    if not symmetric:
        tree = tree.with_bandwidths(
            {
                edge: draw(st.sampled_from(BANDWIDTH_CHOICES + (math.inf,)))
                for edge in sorted(tree.directed_edges)
            }
        )
    return tree


@st.composite
def node_profiles(draw, tree: TreeTopology, kind: str) -> dict:
    """A ``{node: rows}`` profile in compute order; empty nodes may be left out."""
    computes = tree.compute_nodes
    if kind == "zero":
        values = [0.0] * len(computes)
    elif kind == "one-hot":
        values = [0.0] * len(computes)
        values[draw(st.integers(0, len(computes) - 1))] = float(
            draw(st.integers(1, 500))
        )
    elif kind == "integer":
        values = [float(draw(st.integers(0, 200))) for _ in computes]
    else:
        values = [
            draw(st.floats(0, 200, allow_nan=False, width=64)) for _ in computes
        ]
    return {
        node: rows
        for node, rows in zip(computes, values)
        if rows or draw(st.booleans())
    }


@st.composite
def stage_inputs(draw, *, symmetric: bool = True, kinds=KINDS):
    tree = draw(cost_trees(symmetric=symmetric))
    count = draw(st.integers(1, 3))
    profiles = [
        draw(node_profiles(tree, draw(st.sampled_from(kinds))))
        for _ in range(count)
    ]
    return tree, profiles


def same_tree_cost(found: float, expected: float, profiles) -> bool:
    exact = all(float(x).is_integer() for p in profiles for x in p.values())
    return found == (expected if exact else pytest.approx(expected, rel=1e-12))


# --------------------------------------------------------------------- #
# the three public estimators
# --------------------------------------------------------------------- #


@given(instance=stage_inputs(symmetric=False))
@settings(max_examples=150, deadline=None)
def test_gather_estimate_matches_reference(instance):
    tree, profiles = instance
    cost, target = estimate_gather_cost(tree, profiles)
    # the target includes the first-of-equals tie-break by node_sort_key
    assert (cost, target) == reference_cost.estimate_gather_cost(tree, profiles)
    assert type(cost) is float


@given(instance=stage_inputs(symmetric=False))
@settings(max_examples=150, deadline=None)
def test_uniform_hash_estimate_matches_reference(instance):
    tree, profiles = instance
    cost = estimate_uniform_hash_cost(tree, profiles)
    assert cost == reference_cost.estimate_uniform_hash_cost(tree, profiles)
    assert type(cost) is float


@given(instance=stage_inputs())
@settings(max_examples=150, deadline=None)
def test_tree_estimate_matches_reference(instance):
    tree, profiles = instance
    cost = estimate_tree_cost(tree, profiles)
    expected = reference_cost.estimate_tree_cost(tree, profiles)
    assert same_tree_cost(cost, expected, profiles)
    assert type(cost) is float


def _cost_or_error(estimate, tree, profiles):
    try:
        return estimate(tree, profiles)
    except TopologyError as error:
        return str(error)


@given(instance=stage_inputs(symmetric=False, kinds=("zero", "one-hot", "integer")))
@settings(max_examples=100, deadline=None)
def test_tree_estimate_on_asymmetric_links_ends_like_the_reference(instance):
    """The same ``TopologyError`` naming the same link — or, where the
    reference never reaches a link (nothing placed, no links), its cost."""
    tree, profiles = instance
    assert _cost_or_error(estimate_tree_cost, tree, profiles) == _cost_or_error(
        reference_cost.estimate_tree_cost, tree, profiles
    )


def test_tree_estimate_rejects_an_asymmetric_link():
    tree = two_level([2, 2])
    a, b = tree.undirected_edges()[1]
    node = sorted(tree.compute_nodes, key=str)[0]
    with pytest.raises(TopologyError, match="asymmetric"):
        estimate_tree_cost(tree.with_bandwidths({(a, b): 0.25}), [{node: 5.0}])


@pytest.mark.parametrize(
    "estimate",
    [estimate_gather_cost, estimate_uniform_hash_cost, estimate_tree_cost],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("stray", ["core", "nowhere"])
def test_a_profile_key_that_is_not_a_compute_node_is_an_error(estimate, stray):
    """A router and an unknown node alike: the estimators used to drop
    the key from side sums, still count it in totals, and let gather
    pick it as the target."""
    tree = two_level([2, 2])
    assert "core" in tree.routers
    node = sorted(tree.compute_nodes, key=str)[0]
    with pytest.raises(PlanError, match=repr(stray)):
        estimate(tree, [{node: 5.0}, {node: 1.0, stray: 90.0}])


# --------------------------------------------------------------------- #
# the stage-level model: costs and output profiles
# --------------------------------------------------------------------- #


@given(instance=stage_inputs(), out_rows=st.floats(0, 1e4, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_join_stages_match_reference(instance, out_rows):
    tree, profiles = instance
    left, right = profiles[0], profiles[-1]
    reference = reference_cost.ReferenceCostModel(tree)
    (found,) = CostModel(tree).join_stages(
        placement_profile(tree, left)[None],
        placement_profile(tree, right)[None],
        [out_rows],
        PROTOCOLS,
    )
    for protocol, (cost, profile) in zip(PROTOCOLS, found):
        expected_cost, expected_profile = reference.join_stage(
            RelationStats(0.0, profile=left),
            RelationStats(0.0, profile=right),
            protocol,
            out_rows,
        )
        if protocol == "tree":
            assert same_tree_cost(cost, expected_cost, [left, right])
        else:
            assert cost == expected_cost
        assert (
            profile.tolist()
            == placement_profile(tree, expected_profile).tolist()
        )


@given(data=st.data(), tree=cost_trees())
@settings(max_examples=100, deadline=None)
def test_a_stacked_step_scores_every_stage_as_if_alone(data, tree):
    """One stacked call is one call per row, bit for bit: costs, output
    profiles and their bytes (the optimizer's dedupe key)."""
    count = data.draw(st.integers(1, 5))
    sides = [
        [
            placement_profile(
                tree, data.draw(node_profiles(tree, data.draw(st.sampled_from(KINDS))))
            )
            for _ in range(2)
        ]
        for _ in range(count)
    ]
    rows = [data.draw(st.floats(0, 1e4, allow_nan=False)) for _ in range(count)]
    model = CostModel(tree)
    lefts, rights = (np.stack(side) for side in zip(*sides))
    stacked = model.join_stages(lefts, rights, rows, PROTOCOLS)
    assert len(stacked) == count
    for (left, right), out_rows, found in zip(sides, rows, stacked):
        (alone,) = model.join_stages(left[None], right[None], [out_rows], PROTOCOLS)
        for (cost, profile), (cost_alone, profile_alone) in zip(found, alone):
            assert type(cost) is float
            assert cost == cost_alone
            assert profile.tobytes() == profile_alone.tobytes()


@given(instance=stage_inputs(), groups=st.floats(0, 300, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_groupby_stages_match_reference(instance, groups):
    tree, profiles = instance
    child = profiles[0]
    reference = reference_cost.ReferenceCostModel(tree)
    found = CostModel(tree).groupby_stages(
        placement_profile(tree, child), groups, PROTOCOLS
    )
    for protocol, (cost, profile) in zip(PROTOCOLS, found):
        expected_cost, expected_profile = reference.groupby_stage(
            RelationStats(0.0, profile=child), groups, protocol
        )
        assert cost == expected_cost
        assert (
            profile.tolist()
            == placement_profile(tree, expected_profile).tolist()
        )


# --------------------------------------------------------------------- #
# whole plans
# --------------------------------------------------------------------- #

FILTERED_GROUPED = GroupBy(
    Join(
        inputs=(Filter(Scan("R0"), "x0", "<=", 100), Scan("R1"), Scan("R2")),
        conditions=(
            JoinCondition(0, "x1", 1, "x1"),
            JoinCondition(1, "x2", 2, "x2"),
        ),
    ),
    key="x3",
    value="x0",
    op="sum",
)

QUERIES = {
    "chain-3": (chain_query(3), chain_catalog, {"num_relations": 3}),
    "chain-4": (chain_query(4), chain_catalog, {"num_relations": 4}),
    "star-2": (star_query(2), star_catalog, {"num_satellites": 2}),
    "star-3": (star_query(3), star_catalog, {"num_satellites": 3}),
    "filter-join-groupby": (FILTERED_GROUPED, chain_catalog, {"num_relations": 3}),
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("policy", ["zipf", "uniform", "proportional"])
@pytest.mark.parametrize("shape", sorted(QUERIES))
def test_optimize_compiles_the_plan_the_reference_model_compiles(
    shape, policy, strategy
):
    query, make_catalog, width = QUERIES[shape]
    tree = two_level([3, 4, 2], uplink_bandwidth=[1, 2, 4])
    catalog = make_catalog(tree, rows=120, key_space=64, seed=3, policy=policy, **width)
    found = optimize(query, tree, catalog, strategy=strategy)
    with reference_cost.reference_model():
        expected = optimize(query, tree, catalog, strategy=strategy)
    # frozen dataclasses: kinds, inputs, protocols, columns, est_rows, est_cost
    assert found.stages == expected.stages
    assert found == expected
    assert all(type(stage.est_cost) is float for stage in found.stages)
