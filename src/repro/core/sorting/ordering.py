"""Valid compute-node orderings for sorting (Section 5).

A *valid ordering* is any left-to-right traversal of the tree after
rooting it arbitrarily.  The defining structural property — what the
validators here check — is that the compute nodes of each side of every
link occupy a contiguous stretch of the order (possibly wrapping, since
re-rooting rotates the traversal).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.topology.steiner import RoutingIndex
from repro.topology.tree import NodeId, TreeTopology


def _link_sides(index: RoutingIndex, at, placed, ufunc, identity) -> np.ndarray:
    """Per link, ``ufunc`` over ``placed`` (put at nodes ``at``) on the
    side below the link's child and on the other side: ``(2, links)``."""
    values = np.full(index.num_nodes, identity)
    values[at] = placed
    inside, outside = index.subtree_sums(values, ufunc, identity)
    child = index.link_child
    return np.stack([inside[child], outside[child]])


def is_valid_compute_order(tree: TreeTopology, order: Sequence[NodeId]) -> bool:
    """True iff ``order`` is a left-to-right traversal of some rooting.

    For every link, one side's compute nodes must form a contiguous
    interval of the order (the other side is then a prefix plus a suffix,
    which a rotation — i.e. a different root — makes contiguous too).
    All links at once: per side, the count, min and max of the positions
    it holds — contiguous when empty or spanning exactly its count.
    """
    count = len(order)
    # as many nodes as compute, and every compute node among them
    if count != tree.num_compute_nodes or set(order) != set(tree.compute_nodes):
        return False
    index = tree.routing_index
    at = np.fromiter(map(index.index_of.__getitem__, order), np.intp, count)
    positions = np.arange(count)
    held = _link_sides(index, at, 1, np.add, 0)
    lows = _link_sides(index, at, positions, np.minimum, count)
    highs = _link_sides(index, at, positions, np.maximum, -1)
    contiguous = (held == 0) | (highs - lows + 1 == held)
    return bool(contiguous.any(axis=0).all())


def verify_sorted_output(
    tree: TreeTopology,
    outputs: Mapping[NodeId, np.ndarray],
    order: Sequence[NodeId],
    expected: np.ndarray,
) -> None:
    """Assert the outputs are a correct sort of ``expected`` along ``order``.

    :func:`check_sorted_output` against ``expected`` sorted.
    """
    check_sorted_output(
        tree, outputs, order, np.sort(np.asarray(expected, dtype=np.int64))
    )


def check_sorted_output(
    tree: TreeTopology,
    outputs: Mapping[NodeId, np.ndarray],
    order: Sequence[NodeId],
    expected_sorted: np.ndarray,
) -> None:
    """Assert the outputs, read along ``order``, are ``expected_sorted``.

    Checks: the order is a valid traversal; no node outside it holds
    output; and the runs, end to end, equal ``expected_sorted``.  Only a
    failed comparison looks further, for the first fall along the order
    (named at its node) or else a wrong multiset, so a correct sort is
    read once.  Raises :class:`ProtocolError` with a specific message
    otherwise.
    """
    if not is_valid_compute_order(tree, order):
        raise ProtocolError(f"{list(order)!r} is not a valid traversal order")
    # a valid order holds every compute node, so a node outside it is one
    # that does not compute
    stray = set(outputs).difference(tree.compute_nodes)
    if stray:
        node = next(node for node in outputs if node in stray)
        raise ProtocolError(f"node {node!r} holds output but is not in the order")
    runs = [np.asarray(outputs.get(node, np.empty(0, np.int64))) for node in order]
    merged = np.concatenate(runs)
    if np.array_equal(merged, expected_sorted):
        return  # equal to a sort, so no run falls
    falls = np.flatnonzero(merged[1:] < merged[:-1])
    if len(falls):
        # the node holding the first fall's lower end, and the one before it
        bounds = np.cumsum([0, *map(len, runs)])
        node, previous = np.searchsorted(bounds, falls[0] + [1, 0], side="right") - 1
        if np.any(np.diff(runs[node]) < 0):
            raise ProtocolError(f"node {order[node]!r} holds an unsorted run")
        raise ProtocolError(
            f"node {order[node]!r} holds {runs[node][0]} but an earlier node "
            f"holds {int(runs[previous][-1])}"
        )
    raise ProtocolError(
        "sorted output is not a permutation of the input "
        f"({len(merged)} vs {len(expected_sorted)} elements)"
    )
