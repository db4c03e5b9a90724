"""Degree tables, reusing ``groupby-aggregate``.

No new protocol is needed: a graph's degree table is the group-by
``count`` of its incidence messages.  These helpers build the
keyed-tuple distribution from a placed graph — two messages per edge,
one per endpoint, produced locally for free — and dispatch through the
engine, so every registered group-by protocol (``tree`` /
``uniform-hash`` / ``gather``) works unchanged and the shared-key lower
bound applies as-is.
"""

from __future__ import annotations

import numpy as np

from repro.data.distribution import Distribution
from repro.graphs.model import PlacedGraph, VERTEX_BITS, decode_edges
from repro.queries.tuples import encode_tuples
from repro.report import RunReport
from repro.topology.tree import TreeTopology, node_sort_key


def incidence_distribution(graph: PlacedGraph, *, tag: str = "R") -> Distribution:
    """Per-node ``(vertex, 1)`` messages: two per edge, placed as-is.

    Every endpoint of a local edge is paired with 1, so the group-by
    ``count`` of the messages is the degree table.  The expansion is
    local computation — the shuffle is what the dispatched protocol
    charges.
    """
    placements: dict = {}
    for node in sorted(graph.nodes, key=node_sort_key):
        fragment = graph.distribution.fragment(node, graph.tag)
        if not len(fragment):
            continue
        keys = np.concatenate(decode_edges(fragment))
        placements[node] = {
            tag: encode_tuples(
                keys, np.ones(len(keys), dtype=np.int64), payload_bits=VERTEX_BITS
            )
        }
    return Distribution(placements)


def run_degrees(
    tree: TreeTopology,
    graph: PlacedGraph,
    *,
    protocol: str | None = None,
    seed: int = 0,
    placement: str = "custom",
    **opts,
) -> RunReport:
    """Degree table via group-by ``count``; outputs are ``{vertex: degree}``."""
    from repro.engine import run

    return run(
        "groupby-aggregate",
        tree,
        incidence_distribution(graph),
        protocol=protocol,
        seed=seed,
        placement=placement,
        op="count",
        payload_bits=VERTEX_BITS,
        **opts,
    )
