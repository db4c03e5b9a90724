"""Symmetry is decided once, and every guarded entry point still says so.

``TreeTopology.is_symmetric`` is a fact of an immutable tree: settled at
construction, not re-derived edge by edge on every call.  Each protocol
and bound that opens with ``require_symmetric(context)`` must still
refuse an asymmetric tree with the same ``TopologyError`` text — one
parameter per call site in ``src/``.
"""

import re

import numpy as np
import pytest

from repro.core.cartesian.lower_bounds import (
    cartesian_lower_bound_cover,
    cartesian_lower_bound_flow,
)
from repro.core.cartesian.star import star_cartesian_product
from repro.core.cartesian.tree import tree_cartesian_product
from repro.core.cartesian.unequal import (
    generalized_star_cartesian_product,
    unequal_lower_bound_counting,
    unequal_lower_bound_flow,
)
from repro.core.cartesian.whc import whc_cartesian_product
from repro.core.intersection.lower_bound import intersection_lower_bound
from repro.core.intersection.star import star_intersect
from repro.core.intersection.tree import tree_intersect
from repro.core.sorting.lower_bound import sorting_lower_bound
from repro.core.sorting.terasort import terasort
from repro.core.sorting.wts import weighted_terasort
from repro.data.distribution import Distribution
from repro.errors import TopologyError
from repro.graphs import components_lower_bound, triangles_lower_bound
from repro.graphs.components import tree_connected_components
from repro.graphs.model import encode_edges
from repro.queries import (
    groupby_lower_bound,
    tree_equijoin,
    tree_groupby_aggregate,
)
from repro.queries.tuples import encode_tuples
from repro.topology.builders import star
from repro.topology.dagger import build_dagger
from repro.topology.tree import TreeTopology

GUARDED = [
    (intersection_lower_bound, "the Theorem 1 lower bound"),
    (sorting_lower_bound, "the Theorem 6 lower bound"),
    (cartesian_lower_bound_flow, "the Theorem 3 lower bound"),
    (cartesian_lower_bound_cover, "the Theorem 4 lower bound"),
    (unequal_lower_bound_flow, "the Theorem 8 lower bound"),
    (unequal_lower_bound_counting, "the Theorem 9 lower bound"),
    (groupby_lower_bound, "the group-by lower bound"),
    (components_lower_bound, "the connectivity lower bound"),
    (triangles_lower_bound, "the triangle-count lower bound"),
    (lambda tree, dist: build_dagger(tree, dist.sizes()), "building G-dagger"),
    (star_intersect, "StarIntersect"),
    (tree_intersect, "TreeIntersect"),
    (star_cartesian_product, "StarCartesianProduct"),
    (whc_cartesian_product, "the weighted HyperCube"),
    (generalized_star_cartesian_product, "GeneralizedStarCartesianProduct"),
    (tree_cartesian_product, "tree cartesian product"),
    (terasort, "TeraSort"),
    (weighted_terasort, "weighted TeraSort"),
    (tree_equijoin, "tree_equijoin"),
    (tree_groupby_aggregate, "tree_groupby_aggregate"),
    (tree_connected_components, "connected components"),
]


@pytest.fixture(scope="module")
def lopsided():
    """A star with one link faster downstream than up, and data on it."""
    tree = star(4).with_bandwidths({("w", "v1"): 3.0})
    values = np.arange(1, 9)
    placements = {
        node: {
            "R": encode_tuples(values + 10 * i, values),
            "S": encode_tuples(values + 10 * i + 4, values),
            "E": encode_edges(values + i, values + i + 1),
        }
        for i, node in enumerate(sorted(tree.compute_nodes))
    }
    return tree, Distribution(placements)


@pytest.mark.parametrize("entry, context", GUARDED, ids=[c for _, c in GUARDED])
def test_every_guarded_entry_point_refuses_an_asymmetric_tree(
    lopsided, entry, context
):
    tree, distribution = lopsided
    message = (
        f"{context} requires a symmetric tree topology "
        "(every link with equal bandwidth in both directions)"
    )
    with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
        entry(tree, distribution)


def test_symmetry_is_decided_at_construction(monkeypatch):
    tree = star(3)
    lopsided = tree.with_bandwidths({("v1", "w"): 0.25})
    # the bandwidth table is never consulted again, however often asked
    monkeypatch.setattr(tree, "_bandwidth", None)
    monkeypatch.setattr(lopsided, "_bandwidth", None)
    assert all(tree.is_symmetric for _ in range(3))
    assert not any(lopsided.is_symmetric for _ in range(3))
    tree.require_symmetric("anything")
    assert "asymmetric" in repr(lopsided) and "asymmetric" not in repr(tree)


def test_derived_and_pickled_trees_decide_for_themselves():
    import pickle

    tree = star(3)
    lopsided = tree.with_bandwidths({("v1", "w"): 0.25})
    assert lopsided.with_bandwidths({("v1", "w"): 1.0}).is_symmetric
    assert not pickle.loads(pickle.dumps(lopsided)).is_symmetric
    assert pickle.loads(pickle.dumps(tree)).is_symmetric
    assert TreeTopology({}, ["only"]).is_symmetric
    assert tree.with_compute_nodes(["v1", "v2"]).is_symmetric
