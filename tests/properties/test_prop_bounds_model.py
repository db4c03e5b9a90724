"""Every per-link and cover bound against the model's formula.

Production computes a per-link bound as one vector over the links (the
relation's offsets -> ``link_side_sums`` / ``steiner_counts`` -> one
division by the bandwidths); the model (``tests/model/bounds.py``)
recomputes each link's value from link sides it enumerates, on
placements that leave nodes or a whole relation out.  Inputs are integer
sizes, so every link's value must be equal exactly, listed in
``undirected_edges()`` order, with the first largest link as the
bottleneck.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cartesian.lower_bounds import (
    cartesian_lower_bound,
    cartesian_lower_bound_cover,
    cartesian_lower_bound_flow,
)
from repro.core.cartesian.unequal import unequal_lower_bound_flow
from repro.core.intersection.lower_bound import intersection_lower_bound
from repro.core.sorting.lower_bound import sorting_lower_bound
from repro.data.distribution import Distribution
from repro.graphs import components_lower_bound, triangles_lower_bound
from repro.graphs.model import encode_edges
from repro.queries import equijoin_lower_bound, groupby_lower_bound
from repro.topology.builders import two_level
from repro.topology.dagger import build_dagger
from tests.model import bounds
from tests.strategies import (
    graph_instances,
    keyed_instances,
    node_sizes,
    set_pair_instances,
    sort_instances,
    tree_topologies,
)


def assert_bound(found, model, tree) -> None:
    """``model`` is the model's ``{link: value}`` dict for a per-link
    bound, or the value of a bound that is not a per-link maximum."""
    assert type(found.value) is float
    if not isinstance(model, dict):  # Theorem 4
        assert math.isclose(found.value, model), (found.value, model)
        assert found.per_edge == {} and found.bottleneck_edge is None
        return
    edges = tree.undirected_edges()
    assert list(found.per_edge) == edges
    assert all(type(v) in (int, float) for v in found.per_edge.values())
    assert {frozenset(e): v for e, v in found.per_edge.items()} == model
    assert found.value == bounds.value(model)
    top = [e for e in edges if model[frozenset(e)] == found.value]
    assert found.bottleneck_edge == (top[0] if top else None)


@st.composite
def partial_placements(draw, instances):
    """An instance as drawn (every compute node placed), or with some
    nodes left out of the placement, or with a relation absent."""
    tree, distribution = draw(instances)
    shape = draw(st.sampled_from(["all", "subset", "absent-tag"]))
    if shape == "subset":
        kept = [n for n in distribution.node_order if draw(st.booleans())]
        distribution = Distribution(
            {n: {t: distribution.fragment(n, t) for t in distribution.tags} for n in kept}
        )
    elif shape == "absent-tag":
        distribution = Distribution.from_columns(
            distribution.node_order, {"R": distribution.column("R")}
        )
    return tree, distribution


TWO_RELATION_BOUNDS = [
    (intersection_lower_bound, bounds.intersection),
    (equijoin_lower_bound, bounds.intersection),
    (cartesian_lower_bound_flow, bounds.theorem3),
    # Theorem 8's flow is Theorem 1's: capped at the smaller relation
    (unequal_lower_bound_flow, bounds.intersection),
    (cartesian_lower_bound_cover, bounds.theorem4),
    (cartesian_lower_bound, bounds.cartesian),
]


@pytest.mark.parametrize(
    "bound, model", TWO_RELATION_BOUNDS, ids=lambda b: b.__name__
)
@given(instance=partial_placements(set_pair_instances()))
@settings(max_examples=40, deadline=None)
def test_two_relation_bounds(bound, model, instance):
    tree, distribution = instance
    assert_bound(bound(tree, distribution), model(tree, distribution), tree)


@given(instance=partial_placements(sort_instances()))
@settings(max_examples=40, deadline=None)
def test_sorting_bound(instance):
    tree, distribution = instance
    assert_bound(
        sorting_lower_bound(tree, distribution),
        bounds.sorting(tree, distribution),
        tree,
    )


@given(data=st.data(), tree=tree_topologies())
@settings(max_examples=60, deadline=None)
def test_dagger_orientation(data, tree):
    """Theorem 4's cover is read off G-dagger: same orientation, same ties."""
    sizes = data.draw(node_sizes(tree, max_size=3))  # small sizes tie often
    found = build_dagger(tree, sizes)
    assert (found.root, found.parent, found.out_bandwidth) == bounds.dagger(
        tree, sizes
    )


@given(instance=partial_placements(keyed_instances()))
@settings(max_examples=60, deadline=None)
def test_groupby_bound(instance):
    tree, distribution = instance
    assert_bound(
        groupby_lower_bound(tree, distribution),
        bounds.groupby(tree, distribution),
        tree,
    )
    # a narrower payload merges neighbouring keys: another key multiset
    assert_bound(
        groupby_lower_bound(tree, distribution, payload_bits=22),
        bounds.groupby(tree, distribution, payload_bits=22),
        tree,
    )


@given(instance=partial_placements(graph_instances()))
@settings(max_examples=60, deadline=None)
def test_graph_bounds(instance):
    tree, distribution = instance
    assert_bound(
        components_lower_bound(tree, distribution),
        bounds.components(tree, distribution),
        tree,
    )
    assert_bound(
        triangles_lower_bound(tree, distribution),
        bounds.triangles(tree, distribution),
        tree,
    )


def test_components_bound_with_sparse_ids_and_empty_nodes():
    """Vertex ids at the top of the 20-bit space (the kernel indexes the
    distinct endpoints, not the id range) and nodes holding no edges."""
    tree = two_level([3, 2, 3], uplink_bandwidth=[1, 0.5, 2])
    nodes = sorted(tree.compute_nodes, key=str)
    top = (1 << 20) - 1
    ids = np.array([top, top - 1, top - 7, 3, 0, top // 2, top // 2 + 1, 12])
    rng = np.random.default_rng(9)
    placements = {}
    for node in nodes[::2]:  # every other node is empty, one rack entirely
        ends = ids[rng.integers(0, len(ids), (6, 2))]
        ends = ends[ends[:, 0] != ends[:, 1]]
        placements[node] = {"E": encode_edges(ends.min(axis=1), ends.max(axis=1))}
    placements[nodes[1]] = {"E": []}
    distribution = Distribution(placements)
    found = components_lower_bound(tree, distribution)
    assert_bound(found, bounds.components(tree, distribution), tree)
    assert found.value > 0
