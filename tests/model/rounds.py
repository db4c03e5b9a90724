"""Section 2's round, one transfer at a time.

A round is a list of transfers ``(src, destination set, payload, tag)``.
A transfer loads every link on the union of its paths once per element
(a unicast's path, a multicast's Steiner tree); the round costs
``max_e load_e / w_e``.  Each ``(dst, tag)`` receives the unicasts in
registration order, then the multicasts in registration order; a copy a
node sends itself is stored, not received.

The two ``RoundContext`` calls expand into transfers, nodes named by
their compute-order position, each run taking the next ``count``
elements: ``exchange_runs`` is one unicast per ``(source, target,
count)`` run; ``exchange_multicast_runs`` one multicast per ``(source,
destination set, count)`` run, to the *set* its row names.

:class:`ModelCluster` runs these calls on storage of its own;
:class:`ModelAuditor` checks live production rounds from the run
context's auditor slot, reading their two record streams in
:func:`round_transfers`, the one place that knows their shape.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

from repro.topology.tree import node_sort_key
from tests.model.paths import steiner_links


class Transfer(NamedTuple):
    src: object
    dsts: frozenset
    payload: list
    tag: str
    multicast: bool


def _ints(values) -> list:
    return [int(value) for value in values]


class Calls:
    """The two calls of one round, expanded into transfers."""

    def __init__(self, order) -> None:
        self.order = order
        self.transfers: list = []

    def exchange_runs(self, sources, targets, counts, values, *, tag) -> None:
        payload, start = _ints(values), 0
        for source, target, count in zip(_ints(sources), _ints(targets), _ints(counts)):
            run = payload[start : start + count]
            dsts = frozenset([self.order[target]])
            self.transfers.append(Transfer(self.order[source], dsts, run, tag, False))
            start += count

    def exchange_multicast_runs(
        self, sources, destinations, counts, values, *, tag
    ) -> None:
        if isinstance(destinations, tuple):  # CSR (members, offsets)
            members, offsets = map(_ints, destinations)
            rows = [members[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        else:  # one set per matrix row
            rows = [_ints(row) for row in destinations]
        payload, start = _ints(values), 0
        for source, row, count in zip(_ints(sources), rows, _ints(counts)):
            dsts = frozenset(self.order[member] for member in row)
            run = payload[start : start + count]
            self.transfers.append(Transfer(self.order[source], dsts, run, tag, True))
            start += count


class Outcome(NamedTuple):
    loads: dict  # directed link -> elements
    cost: float
    received: Counter  # node -> elements that came from another node
    delivered: dict  # (node, tag) -> elements appended, in order


def evaluate(tree, transfers) -> Outcome:
    """Deliver and charge one round's transfers."""
    volume, received, delivered = Counter(), Counter(), {}
    # unicasts first; sorted() is stable, so each kind keeps its order
    for src, dsts, payload, tag, _ in sorted(transfers, key=lambda t: t.multicast):
        if not payload:
            continue
        volume[src, dsts] += len(payload)
        for dst in dsts:
            delivered.setdefault((dst, tag), []).extend(payload)
            if dst != src:
                received[dst] += len(payload)
    # a link carries every element of every transfer whose paths cross it
    loads = Counter()
    for (src, dsts), elements in volume.items():
        for link in steiner_links(tree, src, dsts):
            loads[link] += elements
    cost = max(
        (load / tree.bandwidth(*link) for link, load in loads.items()), default=0.0
    )
    return Outcome(dict(loads), cost, received, delivered)


class ModelCluster:
    """Storage, rounds and received counts of a cluster, by the model."""

    def __init__(self, tree) -> None:
        self.tree = tree
        self.compute_order = tuple(sorted(tree.compute_nodes, key=node_sort_key))
        self.storage: dict = {}  # (node, tag) -> elements
        self.outcomes: list = []
        self.received: Counter = Counter()

    @contextmanager
    def round(self):
        calls = Calls(self.compute_order)
        yield calls
        outcome = evaluate(self.tree, calls.transfers)
        self.outcomes.append(outcome)
        self.received.update(outcome.received)
        for key, values in outcome.delivered.items():
            self.storage.setdefault(key, []).extend(values)

    def snapshot(self) -> dict:
        """What :func:`tests.cluster_identity.snapshot` reads of a cluster."""
        return {
            "loads": [outcome.loads for outcome in self.outcomes],
            "costs": [outcome.cost for outcome in self.outcomes],
            "received": {v: self.received[v] for v in self.compute_order},
            "storage": {key: values for key, values in self.storage.items() if values},
        }


def round_transfers(cluster, context) -> list:
    """A finalized production round's transfers, read off its two record
    streams: ``(sources, targets, counts, payload, tag)`` unicast records
    and ``(origins, members, offsets, counts, payload, tag)`` multicast
    records, nodes as compute-order positions."""
    calls = Calls(cluster.compute_order)
    for sources, targets, counts, payload, tag in context._unicast_stream:
        calls.exchange_runs(sources, targets, counts, payload, tag=tag)
    for origins, members, offsets, counts, payload, tag in context._multicasts:
        calls.exchange_multicast_runs(
            origins, (members, offsets), counts, payload, tag=tag
        )
    return calls.transfers


class ModelAuditor:
    """A run-context auditor that checks every finalized round against
    the model: per-link loads, round cost, received counts and the bytes
    appended to every ``(node, tag)``.  ``clusters`` lists each cluster
    it saw, in order; ``costs`` the model's cost of each round checked."""

    enabled = True

    def __init__(self) -> None:
        self.clusters: list = []
        self.costs: list = []

    def before_round(self, cluster) -> tuple:
        if not any(seen is cluster for seen in self.clusters):
            self.clusters.append(cluster)
        received = {v: cluster.received_elements(v) for v in cluster.compute_order}
        return received, cluster._storage.sizes()

    def check_round(self, cluster, context, before) -> None:
        received, sizes = before
        outcome = evaluate(cluster.tree, round_transfers(cluster, context))
        ledger = cluster.ledger
        where = f"round {ledger.num_rounds - 1} on {cluster.tree.name!r}"
        assert ledger.round_loads(ledger.num_rounds - 1) == outcome.loads, where
        assert ledger.round_cost(ledger.num_rounds - 1) == outcome.cost, where
        for node in cluster.compute_order:
            arrived = cluster.received_elements(node) - received[node]
            assert arrived == outcome.received[node], (where, node)
        grown = {
            (node, tag)
            for node, tags in cluster._storage.sizes().items()
            for tag, size in tags.items()
            if size != sizes.get(node, {}).get(tag, 0)
        }
        assert grown == outcome.delivered.keys(), where
        for (node, tag), values in outcome.delivered.items():
            start = sizes.get(node, {}).get(tag, 0)
            assert cluster.local(node, tag)[start:].tolist() == values, (where, node, tag)
        self.costs.append(outcome.cost)

    def check_bound(self, **_) -> None:
        """Bounds are compared with :mod:`tests.model.bounds` directly."""
