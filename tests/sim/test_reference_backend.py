"""Whole protocols, replayed through the reference delivery model.

Every protocol builds its clusters through ``make_cluster``, so putting
``tests/reference_delivery.ReferenceCluster`` in place of the ``"sim"``
backend's ``Cluster`` runs the protocol's own
code — hashing, planning, supersteps — on the transfer-by-transfer
definition of a round.  The two runs must agree on the cost, the round
count, every round's per-edge loads, every cluster's received counts and
per-``(node, tag)`` storage bytes, every node's output and the meta.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.uniform_hash import (
    uniform_hash_equijoin,
    uniform_hash_groupby,
    uniform_hash_intersect,
)
from repro.core.cartesian.tree import tree_cartesian_product
from repro.core.cartesian.unequal import generalized_star_cartesian_product
from repro.core.intersection.star import star_intersect
from repro.core.intersection.tree import tree_intersect
from repro.core.sorting.wts import weighted_terasort
from repro.data.distribution import Distribution
from repro.graphs.components import uniform_hash_connected_components
from repro.queries.aggregate import tree_groupby_aggregate
from repro.queries.join import tree_equijoin
from repro.queries.tuples import encode_tuples
from repro.sim import cluster as cluster_module

from tests.cluster_identity import assert_clusters_identical
from tests.reference_delivery import ReferenceCluster, run_on
from tests.strategies import (
    BANDWIDTH_CHOICES,
    graph_instances,
    keyed_instances,
    set_pair_instances,
    sort_instances,
    tree_topologies,
)


def _assert_same_output(actual, expected, where) -> None:
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), where
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert np.array_equal(actual, expected), where
    elif isinstance(expected, dict):  # a join's counts and pairs table
        assert actual.keys() == expected.keys(), where
        for key, value in expected.items():
            _assert_same_output(actual[key], value, (where, key))
    else:
        assert type(actual) is type(expected), where
        assert actual == expected, where


def _assert_same_run(protocol, tree, distribution, **opts):
    """Cost, every round's loads, every cluster's received counts and
    storage bytes, every node's output and the meta agree."""
    production, clusters = run_on(
        cluster_module.Cluster, protocol, tree, distribution, **opts
    )
    reference, references = run_on(
        ReferenceCluster, protocol, tree, distribution, **opts
    )
    assert production.rounds == reference.rounds
    assert production.cost == reference.cost
    for index in range(production.rounds):
        assert production.ledger.round_loads(
            index
        ) == reference.ledger.round_loads(index), f"round {index}"
    assert len(clusters) == len(references)
    for ours, theirs in zip(clusters, references):
        assert_clusters_identical(
            ours, theirs, a_name="production", b_name="reference"
        )
    assert production.outputs.keys() == reference.outputs.keys()
    for node, output in production.outputs.items():
        _assert_same_output(output, reference.outputs[node], node)
    # (a driver's per-superstep reports carry wall times)
    timeless = [
        {key: value for key, value in meta.items() if key != "supersteps"}
        for meta in (production.meta, reference.meta)
    ]
    assert repr(timeless[0]) == repr(timeless[1])


def _as_tuples(sets: Distribution, num_keys: int = 5) -> Distribution:
    """Set elements become payloads under a handful of join keys."""
    return Distribution(
        {
            node: {
                tag: encode_tuples(
                    sets.fragment(node, tag) % num_keys, sets.fragment(node, tag)
                )
                for tag in ("R", "S")
            }
            for node in sets.nodes
        }
    )


@st.composite
def star_instances(draw, *, unequal_bandwidths: bool = False):
    leaves = draw(st.integers(3, 6))
    bandwidth = (
        [draw(st.sampled_from(BANDWIDTH_CHOICES)) for _ in range(leaves)]
        if unequal_bandwidths
        else 1.0
    )
    tree = repro.star(leaves, bandwidth=bandwidth)
    return tree, repro.random_distribution(
        tree,
        r_size=draw(st.integers(1, 60)),
        s_size=draw(st.integers(1, 60)),
        policy=draw(st.sampled_from(["uniform", "zipf"])),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def equal_size_instances(draw):
    """A random tree with ``|R| == |S|``, which Theorem 5 requires."""
    tree = draw(tree_topologies(max_nodes=8))
    size = draw(st.integers(1, 60))
    return tree, repro.random_distribution(
        tree,
        r_size=size,
        s_size=size,
        policy=draw(st.sampled_from(["uniform", "zipf", "single-heavy"])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestWholeProtocolDifferential:
    @given(instance=graph_instances(max_nodes=8, max_vertices=25))
    @settings(max_examples=20, deadline=None)
    def test_uniform_hash_connected_components(self, instance):
        _assert_same_run(uniform_hash_connected_components, *instance, seed=3)

    @given(instance=set_pair_instances(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_tree_intersect(self, instance):
        _assert_same_run(tree_intersect, *instance, seed=3)

    @given(instance=star_instances())
    @settings(max_examples=25, deadline=None)
    def test_star_intersect(self, instance):
        _assert_same_run(star_intersect, *instance, seed=3)

    @given(instance=equal_size_instances(), materialize=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_tree_cartesian_product(self, instance, materialize):
        _assert_same_run(tree_cartesian_product, *instance, materialize=materialize)

    @given(instance=star_instances(unequal_bandwidths=True))
    @settings(max_examples=25, deadline=None)
    def test_unequal_star_cartesian_product(self, instance):
        _assert_same_run(generalized_star_cartesian_product, *instance)

    @given(instance=sort_instances(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_weighted_terasort(self, instance):
        _assert_same_run(weighted_terasort, *instance, seed=3)

    @given(instance=set_pair_instances(max_nodes=8), materialize=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_tree_equijoin(self, instance, materialize):
        tree, sets = instance
        _assert_same_run(
            tree_equijoin, tree, _as_tuples(sets), seed=3, materialize=materialize
        )

    @given(
        instance=keyed_instances(max_nodes=8),
        op=st.sampled_from(["sum", "count", "min", "max"]),
        pre_aggregate=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tree_groupby_aggregate(self, instance, op, pre_aggregate):
        _assert_same_run(
            tree_groupby_aggregate,
            *instance,
            seed=3,
            op=op,
            pre_aggregate=pre_aggregate,
        )

    @given(instance=set_pair_instances(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_uniform_hash_intersect(self, instance):
        _assert_same_run(uniform_hash_intersect, *instance, seed=3)

    @given(instance=set_pair_instances(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_uniform_hash_equijoin(self, instance):
        tree, sets = instance
        _assert_same_run(
            uniform_hash_equijoin, tree, _as_tuples(sets), seed=3, materialize=True
        )

    @given(
        instance=keyed_instances(max_nodes=8),
        op=st.sampled_from(["sum", "count", "min", "max"]),
        pre_aggregate=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_uniform_hash_groupby(self, instance, op, pre_aggregate):
        _assert_same_run(
            uniform_hash_groupby,
            *instance,
            seed=3,
            op=op,
            pre_aggregate=pre_aggregate,
        )
