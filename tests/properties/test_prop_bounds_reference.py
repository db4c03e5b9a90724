"""Every registered bound, recomputed on the per-edge reference loops.

Production computes a per-link bound as one vector over the links (the
relation's offsets -> ``link_side_sums`` / ``steiner_counts`` -> one
division by the bandwidths); this module recomputes each of them with
the node-keyed, edge-by-edge bodies of ``tests/reference_bounds.py`` and
requires the same ``value``, ``bottleneck_edge`` and ``per_edge`` (values
*and* key order).  Inputs are integer sizes, so equality is exact.
"""

import os
import subprocess
import sys
from pathlib import Path

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
from tests.reference_bounds import (
    cartesian_lower_bound_flow_reference,
    components_lower_bound_reference,
    equijoin_lower_bound_reference,
    groupby_lower_bound_reference,
    intersection_lower_bound_reference,
    reference_model,
    sorting_lower_bound_reference,
    triangles_lower_bound_reference,
    unequal_lower_bound_flow_reference,
)
from tests.strategies import (
    graph_instances,
    keyed_instances,
    node_sizes,
    set_pair_instances,
    sort_instances,
    tree_topologies,
)


def assert_same_bound(found, expected) -> None:
    assert found == expected
    assert list(found.per_edge) == list(expected.per_edge)
    assert type(found.value) is float
    assert all(type(v) in (int, float) for v in found.per_edge.values())


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
        distribution = distribution.restrict(["R"])
    return tree, distribution


LIGHTER_SIDE_BOUNDS = [
    (intersection_lower_bound, intersection_lower_bound_reference),
    (equijoin_lower_bound, equijoin_lower_bound_reference),
    (cartesian_lower_bound_flow, cartesian_lower_bound_flow_reference),
    (unequal_lower_bound_flow, unequal_lower_bound_flow_reference),
]


@pytest.mark.parametrize(
    "bound, reference", LIGHTER_SIDE_BOUNDS, ids=lambda b: b.__name__
)
@given(instance=partial_placements(set_pair_instances()))
@settings(max_examples=40, deadline=None)
def test_two_relation_bounds(bound, reference, instance):
    tree, distribution = instance
    assert_same_bound(bound(tree, distribution), reference(tree, distribution))


@pytest.mark.parametrize(
    "bound", [cartesian_lower_bound_cover, cartesian_lower_bound],
    ids=lambda b: b.__name__,
)
@given(instance=set_pair_instances())
@settings(max_examples=40, deadline=None)
def test_cover_bounds(bound, instance):
    """Theorem 4 reads G-dagger, which reads ``tree.side_weights``."""
    tree, distribution = instance
    found = bound(tree, distribution)
    with reference_model():
        expected = bound(tree, distribution)
    if expected.per_edge:  # the flow bound won: its own reference applies
        expected = cartesian_lower_bound_flow_reference(tree, distribution)
    assert_same_bound(found, expected)


@given(instance=partial_placements(sort_instances()))
@settings(max_examples=40, deadline=None)
def test_sorting_bound(instance):
    tree, distribution = instance
    assert_same_bound(
        sorting_lower_bound(tree, distribution),
        sorting_lower_bound_reference(tree, distribution),
    )


@given(data=st.data(), tree=tree_topologies())
@settings(max_examples=60, deadline=None)
def test_dagger_orientation(data, tree):
    """Theorem 4's cover is read off G-dagger: same orientation, same ties."""
    sizes = data.draw(node_sizes(tree, max_size=3))  # small sizes tie often
    found = build_dagger(tree, sizes)
    with reference_model():
        expected = build_dagger(tree, sizes)
    assert (found.root, found.parent, found.out_bandwidth) == (
        expected.root, expected.parent, expected.out_bandwidth
    )


@given(instance=partial_placements(keyed_instances()))
@settings(max_examples=60, deadline=None)
def test_groupby_bound(instance):
    tree, distribution = instance
    assert_same_bound(
        groupby_lower_bound(tree, distribution),
        groupby_lower_bound_reference(tree, distribution),
    )
    # a narrower payload merges neighbouring keys: another key multiset
    assert_same_bound(
        groupby_lower_bound(tree, distribution, payload_bits=22),
        groupby_lower_bound_reference(tree, distribution, payload_bits=22),
    )


@given(instance=partial_placements(graph_instances()))
@settings(max_examples=60, deadline=None)
def test_graph_bounds(instance):
    tree, distribution = instance
    assert_same_bound(
        components_lower_bound(tree, distribution),
        components_lower_bound_reference(tree, distribution),
    )
    assert_same_bound(
        triangles_lower_bound(tree, distribution),
        triangles_lower_bound_reference(tree, distribution),
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
    assert_same_bound(found, components_lower_bound_reference(tree, distribution))
    assert found.value > 0


_HASHSEED_SCRIPT = """
import numpy as np
import repro
from repro.data.distribution import Distribution
from repro.plan import Filter, GroupBy, Join, Scan, chain_catalog, chain_query, optimize
from repro.plan.cost import estimate_tree_cost
from repro.queries import groupby_lower_bound
from repro.queries.tuples import encode_tuples

tree = repro.two_level([3, 4, 2], uplink_bandwidth=[1, 2, 4])
nodes = sorted(tree.compute_nodes, key=str)
rng = np.random.default_rng(5)
placements = {
    v: {"R": encode_tuples(rng.integers(0, 40, 30), rng.integers(0, 9, 30))}
    for v in nodes
}
print(repr(groupby_lower_bound(tree, Distribution(placements))))
# 2**53 + 1.0 rounds back to 2**53, so these sums show the order they ran in
profile = {v: 2.0**53 if i == 4 else 1.0 for i, v in enumerate(nodes)}
print(repr(tree.side_weights(profile)))
print(repr(estimate_tree_cost(tree, [profile])))
# whole plans: a filter makes every later profile and total fractional
catalog = chain_catalog(
    tree, num_relations=3, rows=150, key_space=64, seed=2, policy="zipf"
)
chain = chain_query(3)
kept = Filter(Scan("R0"), "x0", "<=", 40)
filtered = Join((kept, Scan("R1"), Scan("R2")), chain.conditions)
for query in (chain, filtered, GroupBy(kept, key="x1", value="x0")):
    for strategy in ("optimized", "worst-order"):
        print(repr(optimize(query, tree, catalog, strategy=strategy).stages))
"""


def test_bound_and_estimate_do_not_depend_on_the_hash_seed():
    """String node ids hash differently per ``PYTHONHASHSEED``; a bound or
    an estimate that iterated a set of them would show it in ``repr``."""
    src = Path(__file__).resolve().parents[2] / "src"
    outputs = []
    for hash_seed in ("1", "3"):  # the set-based sums differed between these
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert "LowerBound(value=" in outputs[0]
    assert "protocol='tree'" in outputs[0]
