"""Every registered protocol reads only its own relations.

The tasks name their inputs: ``R`` and ``S`` for the relational tasks
(sorting and group-by read ``R`` alone), ``E`` for the graph tasks.  A
relation of any other tag on every node must change nothing a run
reports: not its cost, its rounds, its lower bound or its outputs.  A
protocol, verifier or bound that sums every tag of a node (``total()``
where ``total("R")`` is meant) fails here.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pytest

import repro
from repro.data.distribution import Distribution
from repro.engine import run_with_result
from repro.registry import list_protocols
from repro.topology.builders import star, two_level

TREES = {"star(4)": star(4), "two_level([3, 3])": two_level([3, 3])}


def _input(task: str, tree) -> Distribution:
    if task in ("set-intersection", "cartesian-product", "sorting"):
        size = 24 if task == "cartesian-product" else 80
        return repro.random_distribution(tree, r_size=size, s_size=size, seed=3)
    if task in ("equijoin", "groupby-aggregate"):
        return repro.random_tuple_distribution(tree, r_size=80, s_size=80, seed=3)
    return repro.random_graph_distribution(tree, num_edges=60, seed=3)


def _with_unrelated_tag(tree, distribution: Distribution) -> Distribution:
    """``distribution`` plus a relation ``X`` of a different size on
    every compute node."""
    nodes = tree.left_to_right_compute_order()
    return Distribution(
        {
            node: {
                **{tag: distribution.fragment(node, tag) for tag in distribution.tags},
                "X": np.arange(7 * (i + 1), dtype=np.int64) * 1009 + i,
            }
            for i, node in enumerate(nodes)
        }
    )


def _plain(value):
    """Outputs as nested tuples and lists, comparable with ``==``."""
    if isinstance(value, Mapping):
        return tuple((str(key), _plain(item)) for key, item in value.items())
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


CASES = [
    pytest.param(spec.task, spec.name, name, id=f"{spec.task}-{spec.name}-{name}")
    for name, tree in TREES.items()
    for spec in list_protocols()
    if spec.topology != "star" or tree.is_star()
]


@pytest.mark.parametrize("task, protocol, tree_name", CASES)
def test_an_unrelated_relation_changes_nothing(task, protocol, tree_name):
    tree = TREES[tree_name]
    distribution = _input(task, tree)
    runs = [
        run_with_result(task, tree, dist, protocol=protocol, seed=5)
        for dist in (distribution, _with_unrelated_tag(tree, distribution))
    ]
    (plain, plain_result), (extra, extra_result) = runs
    assert extra.cost == plain.cost
    assert extra.rounds == plain.rounds
    assert extra.lower_bound == plain.lower_bound
    assert _plain(extra_result.outputs) == _plain(plain_result.outputs)
