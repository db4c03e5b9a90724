"""Exact equality of two clusters' observable state.

The differential tests run one round script on two clusters (one call
shape against another, or production against the Section-2 model's
:class:`~tests.model.rounds.ModelCluster`) and compare everything a run
leaves behind.  All comparisons are exact:
integer loads, ``array_equal`` on int64 payloads.
"""

from __future__ import annotations

import numpy as np

from repro.context import use
from repro.obs.tracer import NullTracer
from repro.topology.tree import node_sort_key


def _preview(mapping: dict, limit: int = 3) -> str:
    items = sorted(mapping.items(), key=lambda kv: repr(kv[0]))[:limit]
    suffix = "" if len(mapping) <= limit else ", ..."
    return "{" + ", ".join(f"{k!r}: {v!r}" for k, v in items) + suffix + "}"


def assert_clusters_identical(a, b, *, a_name: str = "A", b_name: str = "B") -> None:
    """Round count, per-round per-edge loads, total cost, per-node
    received counts, tag sets and per-``(node, tag)`` storage bytes must
    all be equal; the first divergence is named.

    Runs under a muted tracer: reading every column may compact it,
    and the check must not perturb the storage counters (the registry
    counts only spans a recording tracer closes).
    """
    with use(tracer=NullTracer()):
        _compare(a, b, a_name, b_name)


def _compare(a, b, a_name: str, b_name: str) -> None:
    assert a.ledger.num_rounds == b.ledger.num_rounds, (
        f"{a_name} ran {a.ledger.num_rounds} rounds, "
        f"{b_name} {b.ledger.num_rounds}"
    )
    for index in range(a.ledger.num_rounds):
        loads_a = a.ledger.round_loads(index)
        loads_b = b.ledger.round_loads(index)
        diverging = {
            edge: (loads_a.get(edge), loads_b.get(edge))
            for edge in set(loads_a) | set(loads_b)
            if loads_a.get(edge) != loads_b.get(edge)
        }
        assert not diverging, (
            f"round {index} loads differ between {a_name} and {b_name} "
            f"on {len(diverging)} edge(s): {_preview(diverging)}"
        )
    assert a.ledger.total_cost() == b.ledger.total_cost(), (
        f"total cost differs: {a_name}={a.ledger.total_cost()!r} "
        f"{b_name}={b.ledger.total_cost()!r}"
    )
    nodes = sorted(
        set(a.tree.compute_nodes) | set(b.tree.compute_nodes), key=node_sort_key
    )
    for node in nodes:
        assert a.received_elements(node) == b.received_elements(node), (
            f"node {node!r} received {a.received_elements(node)} "
            f"({a_name}) vs {b.received_elements(node)} ({b_name})"
        )
        tags_a, tags_b = a._storage.tags(node), b._storage.tags(node)
        assert tags_a == tags_b, (
            f"node {node!r} holds tags {sorted(map(str, tags_a))} "
            f"({a_name}) vs {sorted(map(str, tags_b))} ({b_name})"
        )
        for tag in sorted(tags_a):
            payload_a, payload_b = a.local(node, tag), b.local(node, tag)
            assert np.array_equal(payload_a, payload_b), (
                f"storage bytes differ at node {node!r} tag {tag!r}: "
                f"{len(payload_a)} vs {len(payload_b)} elements "
                f"({a_name} vs {b_name})"
            )


def snapshot(cluster) -> dict:
    """A production cluster's observable state in the shape of
    :meth:`tests.model.rounds.ModelCluster.snapshot`: per-round loads and
    costs, received counts, and every non-empty ``(node, tag)`` column."""
    ledger = cluster.ledger
    with use(tracer=NullTracer()):
        storage = {
            (node, tag): cluster.local(node, tag).tolist()
            for node in cluster.compute_order
            for tag in sorted(cluster._storage.tags(node))
        }
    return {
        "loads": [ledger.round_loads(i) for i in range(ledger.num_rounds)],
        "costs": [ledger.round_cost(i) for i in range(ledger.num_rounds)],
        "received": {v: cluster.received_elements(v) for v in cluster.compute_order},
        "storage": {key: values for key, values in storage.items() if values},
    }


def assert_matches_model(cluster, model) -> None:
    """Every part of :func:`snapshot` equals the model's; the first
    differing part is named."""
    ours, theirs = snapshot(cluster), model.snapshot()
    for part in ("loads", "costs", "received", "storage"):
        assert ours[part] == theirs[part], f"{part} differ from the model"
