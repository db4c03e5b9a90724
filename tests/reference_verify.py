"""The sort verifier link by link and the dense pair matrix: reference models.

Production checks a traversal order with one push-up over the routing
index (:func:`repro.core.sorting.ordering.is_valid_compute_order`),
scans the sorted runs end to end once
(:func:`~repro.core.sorting.ordering.verify_sorted_output`), and counts a
round's unicast pairs sparsely, as ``(src, dst, count)`` triples
(``RoundContext._collect_unicasts``).  This is what they replaced: the
per-link side walk (sides from ``tests/tree_sides.py``) with Python
position lists, the node-by-node run loop, and the dense ``(nodes,
nodes)`` pair matrix, filled from the unicast stream's records and read
back with ``np.nonzero``.  They need NumPy and a ``TreeTopology`` and
nothing else.

:func:`reference_model` swaps the two pair-matrix methods in under the
production finalizers, so a whole round is collected and charged the
old way; ``tests/sim/test_pair_counts_reference.py`` and
``tests/core/sorting/test_verify_reference.py`` compare with ``==``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Mapping, Sequence

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.topology.tree import NodeId, TreeTopology
from repro.util.grouping import index_dtype
from tests.tree_sides import compute_sides


def _is_contiguous(positions: list[int]) -> bool:
    if not positions:
        return True
    return max(positions) - min(positions) + 1 == len(positions)


def reference_is_valid_compute_order(
    tree: TreeTopology, order: Sequence[NodeId]
) -> bool:
    """True iff ``order`` is a left-to-right traversal of some rooting.

    For every link, one side's compute nodes must form a contiguous
    interval of the order (the other side is then a prefix plus a suffix,
    which a rotation — i.e. a different root — makes contiguous too).
    """
    if set(order) != set(tree.compute_nodes) or len(order) != len(
        set(order)
    ):
        return False
    position = {node: i for i, node in enumerate(order)}
    for edge in tree.undirected_edges():
        minus, plus = compute_sides(tree, edge)
        side_a = [position[v] for v in minus]
        side_b = [position[v] for v in plus]
        if not (_is_contiguous(side_a) or _is_contiguous(side_b)):
            return False
    return True


def reference_verify_sorted_output(
    tree: TreeTopology,
    outputs: Mapping[NodeId, np.ndarray],
    order: Sequence[NodeId],
    expected: np.ndarray,
) -> None:
    """Assert the outputs are a correct sort of ``expected`` along ``order``.

    Checks: the order is a valid traversal; each node's run is sorted;
    runs are non-decreasing across consecutive nodes; and the
    concatenation is a permutation of ``expected``.  Raises
    :class:`ProtocolError` with a specific message otherwise.
    """
    if not reference_is_valid_compute_order(tree, order):
        raise ProtocolError(f"{list(order)!r} is not a valid traversal order")
    previous_max: int | None = None
    collected: list[np.ndarray] = []
    for node in order:
        run = np.asarray(outputs.get(node, np.empty(0, np.int64)))
        if len(run) == 0:
            continue
        if np.any(np.diff(run) < 0):
            raise ProtocolError(f"node {node!r} holds an unsorted run")
        if previous_max is not None and run[0] < previous_max:
            raise ProtocolError(
                f"node {node!r} holds {run[0]} but an earlier node "
                f"holds {previous_max}"
            )
        previous_max = int(run[-1])
        collected.append(run)
    merged = (
        np.concatenate(collected) if collected else np.empty(0, np.int64)
    )
    expected_sorted = np.sort(np.asarray(expected, dtype=np.int64))
    if len(merged) != len(expected_sorted) or np.any(
        merged != expected_sorted
    ):
        raise ProtocolError(
            "sorted output is not a permutation of the input "
            f"({len(merged)} vs {len(expected_sorted)} elements)"
        )


def reference_collect_unicasts(self):
    """Resolve the unicast stream into columnar per-tag parts.

    Returns ``(routing_index, by_tag, pair_matrix)``: per tag, the
    registration-ordered ``(dst_ids, None, payload)`` parts — one
    destination per element, runs expanded, so the finalizer groups
    them element by element — whose concatenation is the round's full
    scatter for that tag, plus the dense ``(src, dst) -> element
    count`` matrix that feeds the vectorized tree-flow charger.
    (``self`` is a ``RoundContext``: the old method body.)
    """
    cluster = self._cluster
    routing = cluster.oracle.routing_index
    size = routing.num_nodes
    # (src, dst) -> element count, accumulated as a dense matrix
    # (node counts are small; 1024 nodes is an 8 MB matrix)
    pair_matrix = np.zeros((size, size), dtype=np.int64)
    compute_lookup = routing.compute_idx.astype(index_dtype(size))
    by_tag: dict[str, list[tuple]] = {}
    for src, targets, counts, payload, tag in self._unicast_stream:
        if counts is not None:  # runs: the triples are the pair counts
            run_dst = compute_lookup[targets]
            np.add.at(pair_matrix, (compute_lookup[src], run_dst), counts)
            dst_ids = np.repeat(run_dst, counts)
        else:  # exchange_column()
            dst_ids = compute_lookup[targets]
            flat = compute_lookup[src].astype(np.intp) * size
            flat += dst_ids
            pair_matrix += np.bincount(
                flat, minlength=size * size
            ).reshape(size, size)
        by_tag.setdefault(tag, []).append((dst_ids, None, payload))
    return routing, by_tag, pair_matrix


def reference_apply_pair_loads(self, routing, pair_matrix: np.ndarray) -> None:
    """Charge the pair matrix to the ledger and record arrivals."""
    cluster = self._cluster
    src_ids, dst_ids = np.nonzero(pair_matrix)
    counts = pair_matrix[src_ids, dst_ids]
    cluster.ledger.add_link_loads(
        routing.unicast_loads(src_ids, dst_ids, counts)
    )
    remote = src_ids != dst_ids
    np.add.at(cluster._received_elements, dst_ids[remote], counts[remote])


@contextmanager
def reference_model():
    """Rounds finalized inside count their unicast pairs the old way."""
    from repro.sim.cluster import RoundContext

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoundContext, "_collect_unicasts", reference_collect_unicasts)
        patch.setattr(RoundContext, "_apply_pair_loads", reference_apply_pair_loads)
        yield
