"""The per-node local kernels, one node at a time: the reference model.

Production evaluates every node's local computation in one segmented
pass over whole columns (``intersect_columns``, ``join_columns``,
``combine_per_node_key``).  These are the definitions those kernels must
reproduce, written the slow and obviously right way — a Python loop over
the nodes around the single-fragment bodies the protocols used to call:
``np.intersect1d``, the per-key ``searchsorted`` join, and the
sort-then-``reduceat`` combiner.  ``reference_weighted_indices`` is the
same thing for :class:`~repro.util.hashing.WeightedNodeHasher`'s bucket
table: the inverse of the cumulative node weights, by binary search for
every element.
"""

from __future__ import annotations

import numpy as np

from repro.queries.tuples import decode_tuples
from repro.util.grouping import index_dtype

_REDUCERS = {
    "sum": np.add.reduceat,
    "min": np.minimum.reduceat,
    "max": np.maximum.reduceat,
}


def reference_weighted_indices(weights, hashes) -> np.ndarray:
    """The node index of each 64-bit hash: the number of cumulative
    weights at or below the hash's point of the unit interval, the top
    hashes (which round to 1.0) clamped to the largest point below it."""
    weights = np.asarray(weights, dtype=np.float64)
    cumulative = np.cumsum(weights / float(weights.sum()))
    cumulative[-1] = 1.0
    points = np.asarray(hashes, dtype=np.uint64).astype(np.float64) / 2.0**64
    points = np.minimum(points, np.nextafter(1.0, 0.0))
    return np.searchsorted(cumulative, points, side="right").astype(
        index_dtype(len(weights))
    )


def fragments(owners, values, num_nodes: int) -> list[np.ndarray]:
    """Split a column back into per-node fragments, order preserved."""
    owners = np.asarray(owners)
    values = np.asarray(values)
    return [values[owners == node] for node in range(num_nodes)]


def reference_local_join(r_tuples, s_tuples, *, payload_bits, materialize):
    r_keys, r_payloads = decode_tuples(r_tuples, payload_bits=payload_bits)
    s_keys, s_payloads = decode_tuples(s_tuples, payload_bits=payload_bits)
    r_order = np.argsort(r_keys, kind="stable")
    s_order = np.argsort(s_keys, kind="stable")
    r_keys, r_payloads = r_keys[r_order], r_payloads[r_order]
    s_keys, s_payloads = s_keys[s_order], s_payloads[s_order]
    common = np.intersect1d(r_keys, s_keys)
    num_pairs = 0
    pairs: list = []
    for key in common:
        r_lo, r_hi = np.searchsorted(r_keys, [key, key + 1])
        s_lo, s_hi = np.searchsorted(s_keys, [key, key + 1])
        count = int(r_hi - r_lo) * int(s_hi - s_lo)
        num_pairs += count
        if materialize and count:
            left = np.repeat(r_payloads[r_lo:r_hi], s_hi - s_lo)
            right = np.tile(s_payloads[s_lo:s_hi], r_hi - r_lo)
            keys = np.full(count, key, dtype=np.int64)
            pairs.append(np.stack([keys, left, right], axis=1))
    result: dict = {"num_pairs": num_pairs, "num_keys": int(len(common))}
    if materialize:
        result["pairs"] = (
            np.concatenate(pairs) if pairs else np.empty((0, 3), np.int64)
        )
    return result


def reference_combine_per_key(keys, values, op):
    if len(keys) == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    starts = np.concatenate([[0], boundaries])
    unique_keys = keys[starts]
    if op == "count":
        counts = np.diff(np.concatenate([starts, [len(keys)]]))
        return unique_keys, counts.astype(np.int64)
    return unique_keys, _REDUCERS[op](values, starts)


def reference_intersect_columns(r_owners, r_values, s_owners, s_values, num_nodes):
    return [
        np.intersect1d(r, s)
        for r, s in zip(
            fragments(r_owners, r_values, num_nodes),
            fragments(s_owners, s_values, num_nodes),
        )
    ]


def reference_join_columns(
    r_owners, r_tuples, s_owners, s_tuples, num_nodes, *, payload_bits, materialize
):
    return [
        reference_local_join(
            r, s, payload_bits=payload_bits, materialize=materialize
        )
        for r, s in zip(
            fragments(r_owners, r_tuples, num_nodes),
            fragments(s_owners, s_tuples, num_nodes),
        )
    ]


def reference_combine_per_node_key(owners, keys, values, op, num_nodes):
    """Per node: ``(keys, values)`` of the one-fragment combiner."""
    return [
        reference_combine_per_key(k, v, op)
        for k, v in zip(
            fragments(owners, keys, num_nodes),
            fragments(owners, values, num_nodes),
        )
    ]
