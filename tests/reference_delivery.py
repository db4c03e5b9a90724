"""Section 2's round, one transfer at a time: the reference delivery model.

Production (:class:`repro.sim.cluster.RoundContext`) groups a whole
round with one stable argsort per tag and charges it through the
vectorized ``RoutingIndex`` tree-flow kernels.  This is the definition
those kernels must reproduce, written the slow and obviously right way:
a transfer follows the unique tree path between its endpoints, a
multicast the union of the source→destination paths (its Steiner tree),
every link on it is charged once per element, and the round costs the
most loaded link.  Paths come straight from ``tree.path_edges``, not
from ``RoutingIndex``.

The byte-identity contract every differential test asserts against this
model (ledger loads per round and edge, received counts, tag sets and
per-``(node, tag)`` storage bytes, via
``tests.cluster_identity.assert_clusters_identical``):

* a round is three calls plus two node-named front-ends: ``send`` is
  one transfer, ``multicast`` one copy to every node of a set;
* ``exchange_column`` is, per run of equal ``sources`` in column order,
  one ``send`` per distinct target, ascending, from
  ``compute_order[sources[run]]`` to ``compute_order[target]``, carrying
  that target's elements in element order;
* ``exchange_runs`` is one ``send`` per ``(source, target, count)``
  triple in order, from ``compute_order[source]`` to
  ``compute_order[target]``, each taking the next ``count`` elements;
* ``exchange_multicast_column`` is one ``multicast`` per group id,
  ascending, from ``compute_order[group_sources[gid]]`` to the *set* of
  nodes ``compute_order[m]`` for ``m`` in row ``gid`` of the matrix, or
  in ``members[offsets[gid]:offsets[gid + 1]]`` of the CSR pair;
* within a round all unicasts are delivered before all multicasts, and
  each ``(dst, tag)`` column receives its chunks in registration order,
  then group id, then element order.

``ReferenceCluster`` takes the same constructor arguments as ``Cluster``,
so putting it in place of the class ``make_cluster`` builds (:func:`run_on`)
replays whole protocols through the definition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import cluster as cluster_module
from repro.sim.cluster import Cluster, RoundContext
from tests.link_loads import charge_round


class ReferenceRoundContext(RoundContext):
    """Expands the batched calls to single transfers; delivers one by one."""

    def exchange_column(self, sources, targets, values, *, tag):
        order = self._cluster.compute_order
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        payload = self._as_payload(values)
        cuts = [0, *(np.flatnonzero(np.diff(sources)) + 1).tolist(), len(sources)]
        for lo, hi in zip(cuts, cuts[1:]):
            run = targets[lo:hi]
            for target in np.unique(run).tolist():
                self.send(
                    order[sources[lo]],
                    order[target],
                    payload[lo:hi][run == target],
                    tag=tag,
                )

    def exchange_runs(self, sources, targets, counts, values, *, tag):
        order = self._cluster.compute_order
        payload = self._as_payload(values)
        offset = 0
        for source, target, count in zip(
            *(np.asarray(part).tolist() for part in (sources, targets, counts))
        ):
            self.send(
                order[source], order[target], payload[offset : offset + count],
                tag=tag,
            )
            offset += count

    def exchange_multicast_column(
        self, group_sources, group_ids, destinations, values, *, tag
    ):
        order = self._cluster.compute_order
        payload = self._as_payload(values)
        ids = np.asarray(group_ids, dtype=np.int64)
        if isinstance(destinations, tuple):  # CSR (members, offsets)
            members, offsets = (np.asarray(part).tolist() for part in destinations)
            rows = [members[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        else:  # one set per matrix row
            rows = np.asarray(destinations).tolist()
        for gid in np.unique(ids).tolist():
            self.multicast(
                order[group_sources[gid]],
                {order[member] for member in rows[gid]},
                payload[ids == gid],
                tag=tag,
            )

    def _finalize_bulk(self) -> None:
        cluster = self._cluster
        tree, ledger = cluster.tree, cluster.ledger
        # send() and multicast() registered one-run and one-group
        # records; unicasts first, then multicasts, each in call order
        order = cluster.compute_order
        transfers = [
            (order[source], (order[target],), payload, tag)
            for (source,), (target,), _count, payload, tag in self._unicast_stream
        ] + [
            (order[origin], [order[m] for m in members.tolist()], payload, tag)
            for (origin,), members, _offsets, _ids, payload, tag in self._multicasts
        ]
        loads: dict = {}
        for src, dsts, payload, tag in transfers:
            steiner_tree = {
                edge for dst in dsts for edge in tree.path_edges(src, dst)
            }
            for edge in steiner_tree:
                loads[edge] = loads.get(edge, 0) + len(payload)
            for dst in dsts:
                cluster._storage.append(dst, tag, payload)
                if dst != src:
                    cluster._add_received(dst, len(payload))
        charge_round(ledger, tree, loads)


class ReferenceCluster(Cluster):
    """A ``Cluster`` whose rounds run through the reference model."""

    round_context = ReferenceRoundContext


def run_on(cluster_class, protocol, tree, distribution, **opts):
    """Run ``protocol`` with its clusters built by ``cluster_class``;
    returns the result and every cluster the protocol built."""
    built = []

    def factory(*args, **kwargs):
        built.append(cluster_class(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster_module, "Cluster", factory)
        result = protocol(tree, distribution, **opts)
    assert built, "the protocol never asked make_cluster for a cluster"
    return result, built
