"""Whole protocols, replayed through the reference delivery model.

Every protocol builds its clusters through ``make_cluster``, so swapping
the ``"sim"`` entry of the backend factory table for
``tests/reference_delivery.ReferenceCluster`` runs the protocol's own
code — hashing, planning, supersteps — on the transfer-by-transfer
definition of a round.  The two runs must agree on the cost, the round
count, every round's per-edge loads and every node's output.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.intersection.star import star_intersect
from repro.core.intersection.tree import tree_intersect
from repro.core.sorting.wts import weighted_terasort
from repro.data.distribution import Distribution
from repro.graphs.components import uniform_hash_connected_components
from repro.queries.join import tree_equijoin
from repro.queries.tuples import encode_tuples
from repro.sim import cluster as cluster_module

from tests.reference_delivery import ReferenceCluster
from tests.strategies import graph_instances, set_pair_instances, sort_instances


def _on_reference(protocol, tree, distribution, **opts):
    """Run ``protocol`` with ``"sim"`` clusters built by the reference."""
    built = []

    def factory(*args, **kwargs):
        built.append(ReferenceCluster(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(cluster_module._BACKEND_FACTORIES, "sim", factory)
        result = protocol(tree, distribution, **opts)
    assert built, "the protocol never asked the factory table for a cluster"
    return result


def _assert_same_run(protocol, tree, distribution, **opts):
    production = protocol(tree, distribution, **opts)
    reference = _on_reference(protocol, tree, distribution, **opts)
    assert production.rounds == reference.rounds
    assert production.cost == reference.cost
    for index in range(production.rounds):
        assert production.ledger.round_loads(
            index
        ) == reference.ledger.round_loads(index), f"round {index}"
    assert production.outputs.keys() == reference.outputs.keys()
    for node, output in production.outputs.items():
        if isinstance(output, np.ndarray):
            assert np.array_equal(output, reference.outputs[node]), node
        else:
            assert output == reference.outputs[node], node


@st.composite
def star_instances(draw):
    tree = repro.star(draw(st.integers(3, 6)))
    return tree, repro.random_distribution(
        tree,
        r_size=draw(st.integers(1, 60)),
        s_size=draw(st.integers(1, 60)),
        policy=draw(st.sampled_from(["uniform", "zipf"])),
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

    @given(instance=sort_instances(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_weighted_terasort(self, instance):
        _assert_same_run(weighted_terasort, *instance, seed=3)

    @given(instance=set_pair_instances(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_tree_equijoin(self, instance):
        tree, sets = instance
        # the set elements become payloads under a handful of join keys
        tuples = Distribution(
            {
                node: {
                    tag: encode_tuples(
                        sets.fragment(node, tag) % 5, sets.fragment(node, tag)
                    )
                    for tag in ("R", "S")
                }
                for node in sets.nodes
            }
        )
        _assert_same_run(tree_equijoin, tree, tuples, seed=3)
