"""The executable cluster: storage, rounds, message routing, accounting.

A :class:`Cluster` binds a tree topology to per-node storage and executes
protocols round by round, following Section 2's computation model:

* only compute nodes hold data between rounds;
* within a round, nodes first compute locally, then exchange data; a
  transfer follows the unique tree path between its endpoints, and a
  multicast of the same payload to several destinations follows the
  Steiner tree, each link charged once per element;
* all transfers of a round are accounted together, and the round's cost
  is that of the most bottlenecked link.

Protocols interact with storage under string *tags* (relation names, or
scratch tags like ``"R.recv"``), which is how a receiver distinguishes
arrivals from pre-existing local data.

A round is registered through two calls, one per kind of Section-2
transfer, every node named by its index in
:attr:`Cluster.compute_order`, so no end of a transfer can be a router:

* :meth:`RoundContext.exchange_runs` — unicasts: one ``(source, target,
  count)`` triple per stretch of the payload, such as a sorted fragment
  cut at the splitters, or a hash-partitioned relation cut into runs by
  :func:`~repro.util.grouping.runs_by_target`;
* :meth:`RoundContext.exchange_multicast_column` — replication: groups
  of ``(source, destination set)``, one group id per element.

Each call appends one record to one of two streams, unicast and
multicast, and each stream has one record shape.  Finalization groups
the whole round with one stable sort per tag (no per-destination masks,
no per-group Python loops) and delivers and charges every grouped
transfer in bulk.  A unicast tag is sorted by run, not by element: the
run destinations are sorted once and the payload is gathered run by
run, so no round builds a per-element destination column.  Nothing in
the data plane is memoized: every grouping runs the kernel on the
arrays it is given.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import accumulate, repeat
from time import perf_counter
from typing import Iterator, Sequence

import numpy as np

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.obs.audit import get_auditor
from repro.obs.tracer import get_tracer
from repro.sim.ledger import BITS_PER_ELEMENT, CostLedger
from repro.sim.storage import ColumnarStore
from repro.topology.artifacts import TopologyArtifacts, resolve_artifacts
from repro.topology.tree import NodeId, TreeTopology
from repro.util.grouping import (
    _concat_parts,
    concat_ranges,
    group_slices,
    index_dtype,
)


def _concatenated(parts: Sequence) -> np.ndarray:
    """``np.concatenate(parts)``, minus the copy when there is one part."""
    return np.asarray(parts[0]) if len(parts) == 1 else np.concatenate(parts)


def _pair_counts(keys: np.ndarray, counts: np.ndarray, size: int) -> tuple:
    """``(src, dst, count)`` arrays ascending by pair, no zero count, from
    flat ``src * size + dst`` run keys and the runs' counts.  One
    ``bincount``-sized table when the ``size²`` bins are at most four per
    run, else one sort: memory follows the round's runs, never the square
    of the node count."""
    live = counts > 0  # an empty run is no pair
    keys, counts = keys[live], counts[live]
    if size * size <= 4 * len(keys):
        dense = np.zeros(size * size, np.intp)
        np.add.at(dense, keys, counts)
        flat = np.flatnonzero(dense)
        return (*np.divmod(flat, size), dense[flat])
    order = np.argsort(keys)
    keys = keys[order]
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    counts = np.add.reduceat(counts[order], starts)
    return (*np.divmod(keys[starts], size), counts)


def _group_by_destination(parts: Sequence[tuple]) -> tuple:
    """One tag's unicast parts grouped by destination: ``(payload,
    destinations, starts, ends)``, destination ``k`` receiving
    ``payload[starts[k]:ends[k]]`` in registration order.

    A part is ``(dst_ids, counts, payload)``, run ``i`` being the next
    ``counts[i]`` elements, bound for ``dst_ids[i]``.  The stable sort is
    over runs and the payload is gathered run by run: a stable sort of
    runs puts their elements in the order a stable sort of the elements
    would.
    """
    dst_ids, counts, payloads = zip(*parts)
    payload = _concatenated(payloads)
    order, uniques, starts, ends = group_slices(_concatenated(dst_ids))
    lengths = _concatenated(counts)
    # run k of the sorted runs ends at bounds[k]; its elements sit
    # shift[k] further on in the payload as registered (the CSR gather of
    # concat_ranges, both ends' cumulative sums taken once)
    shift = np.cumsum(lengths)[order]
    lengths = lengths[order]
    bounds = np.cumsum(lengths)
    shift -= bounds
    gather = np.repeat(shift, lengths) + np.arange(len(payload))
    return payload[gather], uniques, (bounds - lengths)[starts], bounds[ends - 1]


class RoundContext:
    """Collects the transfers of one round; created by :meth:`Cluster.round`."""

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        # the multicast stream, in registration order: (origins, members,
        # offsets, group ids, payload, tag), nodes as compute-order
        # indices.  Group g goes from origins[g] to the set
        # members[offsets[g]:offsets[g + 1]] and element i belongs to
        # group ids[i].  Grouping is deferred to finalization like the
        # unicast stream's, so the round's replicated traffic is grouped
        # with one pass per tag and charged with one vectorized
        # Steiner-flow call.
        self._multicasts: list[tuple] = []
        # the unicast stream, in registration order: (sources, targets,
        # counts, payload, tag), nodes as compute-order indices, the
        # payload laid end to end, run i being counts[i] elements from
        # sources[i] to targets[i].  Grouping is deferred to
        # finalization so the whole round is grouped with one pass, and
        # registration order is what keeps storage byte-identical to one
        # transfer per run even when calls mix on one (dst, tag).
        self._unicast_stream: list[tuple] = []
        self._closed = False

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def _check_open(self) -> None:
        if self._closed:
            raise ProtocolError("round already finalized")

    @staticmethod
    def _as_payload(values) -> np.ndarray:
        payload = np.asarray(values, dtype=np.int64)
        if payload.ndim != 1:
            raise ProtocolError("payloads must be one-dimensional arrays")
        return payload

    @staticmethod
    def _as_indices(indices, what: str) -> np.ndarray:
        """Validate a parallel index array (``targets`` / ``group_ids``).

        Dtype is checked even for zero-length arrays — an explicit
        float array is a bug whether or not it holds elements — but an
        empty plain sequence carries no dtype intent (``np.asarray([])``
        defaults to float64) and coerces to int64.
        """
        array = np.asarray(indices)
        if array.ndim != 1:
            raise ProtocolError(f"{what} must be a one-dimensional array")
        if array.dtype.kind not in "iu":
            if array.size or isinstance(indices, np.ndarray):
                raise ProtocolError(f"{what} must be an integer array")
            array = array.astype(np.int64)
        return array

    @staticmethod
    def _check_index_span(
        indices: np.ndarray, bound: int, what: str, candidates: str
    ) -> None:
        """Range-check a parallel index array against its candidate list.

        Runs before the empty-payload early returns (a zero-length
        array passes vacuously), so malformed indices are rejected
        whether or not elements flow this round.
        """
        if not indices.size:
            return
        lo = int(indices.min())
        hi = int(indices.max())
        if lo < 0 or hi >= bound:
            raise ProtocolError(
                f"{what} span [{lo}, {hi}] but only "
                f"{bound} {candidates} were given"
            )

    # ------------------------------------------------------------------ #
    # the transfer API
    # ------------------------------------------------------------------ #

    def exchange_runs(
        self, sources, targets, counts, values, *, tag: str
    ) -> None:
        """Unicast a payload in runs: run ``i`` is the next
        ``counts[i]`` elements of ``values``, travelling from compute
        node ``compute_order[sources[i]]`` to
        ``compute_order[targets[i]]``.

        Every unicast of the package takes this form — a sorted
        fragment cut at the splitters, a light node's proportional
        scatter, a gather, a hash partition cut into runs by
        :func:`~repro.util.grouping.runs_by_target`: one registration
        and one stream record, one index triple per run.  Each run is
        one Section-2 transfer along its tree path (an empty run sends
        nothing), and each ``(dst, tag)`` receives its runs in
        registration order.  The three index arrays address the
        canonical compute order, so neither end of a run can be a
        router.
        """
        self._check_open()
        payload = self._as_payload(values)
        source_indices = self._as_indices(sources, "sources")
        target_indices = self._as_indices(targets, "targets")
        run_lengths = self._as_indices(counts, "counts")
        if not len(source_indices) == len(target_indices) == len(run_lengths):
            raise ProtocolError(
                f"{len(run_lengths)} counts but {len(source_indices)} sources "
                f"and {len(target_indices)} targets; exchange_runs needs "
                "one source, one target and one count per run"
            )
        count = len(self._cluster.compute_order)
        self._check_index_span(
            source_indices, count, "source indices", "compute nodes"
        )
        self._check_index_span(
            target_indices, count, "target indices", "compute nodes"
        )
        if run_lengths.size and int(run_lengths.min()) < 0:
            raise ProtocolError("run counts must be non-negative")
        if int(run_lengths.sum()) != len(payload):
            raise ProtocolError(
                f"{len(payload)} values but the run counts sum to "
                f"{int(run_lengths.sum())}; exchange_runs lays the runs "
                "end to end"
            )
        if len(payload) == 0:
            return
        self._unicast_stream.append(
            (
                source_indices,
                target_indices,
                run_lengths.astype(np.intp, copy=False),
                payload,
                str(tag),
            )
        )

    def exchange_multicast_column(
        self, group_sources, group_ids, destinations, values, *, tag: str
    ) -> None:
        """Replicate a whole relation: element ``i`` goes from compute
        node ``compute_order[group_sources[group_ids[i]]]`` to every
        node of destination set ``group_ids[i]``.

        A group is a (source, destination set) pair, so one registration
        carries every node's replicated elements (one group per distinct
        block-target row in TreeIntersect, one per segment and owner in
        the cartesian tile routing).  ``destinations`` holds the
        sets as compute-order indices, which cannot name a router: an
        integer ``(groups, k)`` matrix, one set per row, or a CSR
        ``(members, offsets)`` tuple, set ``g`` being
        ``members[offsets[g]:offsets[g + 1]]``.  They are *sets*: a
        member listed twice is delivered once.  Each group id is one
        Section-2 multicast, routed on the Steiner tree of its source
        and set so that every link carries the payload once; each
        ``(dst, tag)`` receives the groups by registration and then
        ascending id.  A set a group id names needs at least one
        destination.
        """
        self._check_open()
        payload = self._as_payload(values)
        ids = self._as_indices(group_ids, "group ids")
        if len(ids) != len(payload):
            raise ProtocolError(
                f"{len(payload)} values but {len(ids)} group ids; "
                "exchange_multicast_column needs one group id per element"
            )
        origins = self._as_indices(group_sources, "group sources")
        if isinstance(destinations, tuple) and len(destinations) == 2:
            members = self._as_indices(destinations[0], "destination members")
            offsets = self._as_indices(destinations[1], "destination offsets")
            if not len(offsets) or (
                offsets[0] != 0
                or offsets[-1] != len(members)
                or (offsets[1:] < offsets[:-1]).any()
            ):
                raise ProtocolError(
                    "destination offsets must rise from 0 to the "
                    f"{len(members)} members given"
                )
        else:
            matrix = np.asarray(destinations)
            if matrix.ndim != 2 or matrix.dtype.kind not in "iu":
                raise ProtocolError(
                    "destinations must be an integer (groups, k) matrix "
                    "or a (members, offsets) tuple"
                )
            members = matrix.ravel()
            offsets = np.arange(len(matrix) + 1) * matrix.shape[1]
        groups = len(offsets) - 1
        if len(origins) != groups:
            raise ProtocolError(
                f"{groups} destination sets but {len(origins)} group "
                "sources; exchange_multicast_column needs one source index "
                "per set"
            )
        count = len(self._cluster.compute_order)
        for indices, bound, what, candidates in (
            (origins, count, "group sources", "compute nodes"),
            (members, count, "destination members", "compute nodes"),
            (ids, groups, "group ids", "destination sets"),
        ):
            self._check_index_span(indices, bound, what, candidates)
        if len(payload) == 0:
            return
        empty = offsets[1:] == offsets[:-1]
        if empty.any() and empty[ids].any():
            raise ProtocolError("multicast needs at least one destination")
        self._multicasts.append(
            (origins, members, offsets, ids, payload, str(tag))
        )

    # ------------------------------------------------------------------ #
    # finalization
    # ------------------------------------------------------------------ #

    def _finalize(self) -> None:
        self._check_open()
        self._closed = True
        self._finalize_bulk()

    def _finalize_bulk(self) -> None:
        """Deliver and charge the whole round with grouped bookkeeping.

        All transfers are grouped by ``(dst, tag)`` for delivery — one
        stable sort per tag across every scatter of the round, over
        runs (:func:`_group_by_destination`),
        with no memo in front of it — and by routing unit for
        accounting: unicast ``(src, dst)`` pair counts feed the
        vectorized tree-flow charger
        (:meth:`~repro.topology.steiner.RoutingIndex.unicast_loads`),
        multicasts their Steiner sets; each kernel's ``(2, links)`` load
        array goes to the ledger whole (:meth:`CostLedger.add_link_loads`).
        Addition over element counts is commutative, so the per-edge
        loads equal a transfer-by-transfer path walk's exactly (the
        Section-2 model in ``tests/model/``).

        When a recording tracer is installed, the finalizer splits its
        wall time into *group* (collection, sort, payload gather),
        *deliver* (storage appends) and *charge* (tree-flow accounting)
        phases, counts the delivered elements per tag, and annotates the
        enclosing round span with both alongside the ledger-derived
        round attrs; with the default no-op tracer no clock is read.
        """
        cluster = self._cluster
        storage = cluster._storage
        tracer = get_tracer()
        phases = (
            {
                "t_group_s": 0.0,
                "t_deliver_s": 0.0,
                "t_charge_s": 0.0,
                "delivered_by_tag": {},
            }
            if tracer.enabled
            else None
        )
        cluster.ledger.open_round()

        if self._unicast_stream:
            t0 = perf_counter() if phases is not None else 0.0
            routing, by_tag, pairs = self._collect_unicasts()
            # group: one stable sort per tag over the whole round, parts
            # concatenated in registration order, so per-(dst, tag)
            # contents match a transfer-by-transfer delivery exactly
            grouped = [
                (tag, *_group_by_destination(parts))
                for tag, parts in by_tag.items()
            ]
            if phases is not None:
                t1 = perf_counter()
                phases["t_group_s"] += t1 - t0
            # deliver: install the grouped slices into node storage
            for tag, sorted_payload, uniques, starts, ends in grouped:
                if phases is not None:
                    delivered = phases["delivered_by_tag"]
                    count = len(sorted_payload)
                    delivered[tag] = delivered.get(tag, 0) + count
                # the grouping left the payload cut by destination: it
                # is the table, installed whole
                storage.install(
                    tag,
                    np.searchsorted(routing.compute_idx, uniques),
                    starts,
                    ends,
                    sorted_payload,
                )
            if phases is not None:
                t2 = perf_counter()
                phases["t_deliver_s"] += t2 - t1
            self._apply_pair_loads(routing, pairs)
            if phases is not None:
                phases["t_charge_s"] += perf_counter() - t2

        if self._multicasts:
            self._deliver_multicasts(phases)
        cluster.ledger.close_round()
        if phases is not None:
            self._annotate_round(tracer, phases)

    def _collect_unicasts(
        self,
    ) -> tuple[object, dict[str, list[tuple]], tuple]:
        """Resolve the unicast stream into columnar per-tag parts.

        Returns ``(routing_index, by_tag, pairs)``: per tag, the
        registration-ordered ``(dst_ids, counts, payload)`` parts whose
        concatenation is the round's full scatter for that tag — one
        routing index per run of ``counts`` elements — plus the round's
        ``(src, dst, count)`` pair counts that feed the vectorized
        tree-flow charger (:func:`_pair_counts`).
        """
        routing = self._cluster.oracle.routing_index
        size = routing.num_nodes
        compute_lookup = routing.compute_idx.astype(index_dtype(size))
        by_tag: dict[str, list[tuple]] = {}
        keys, counts = [], []
        for sources, targets, runs, payload, tag in self._unicast_stream:
            dst_ids = compute_lookup[targets]
            keys.append(routing.compute_idx[sources] * size + dst_ids)
            counts.append(runs)
            by_tag.setdefault(tag, []).append((dst_ids, runs, payload))
        return routing, by_tag, _pair_counts(
            _concatenated(keys), _concatenated(counts), size
        )

    def _apply_pair_loads(self, routing, pairs: tuple) -> None:
        """Charge the ``(src, dst, count)`` pair counts to the ledger and
        record arrivals."""
        cluster = self._cluster
        src_ids, dst_ids, counts = pairs
        cluster.ledger.add_link_loads(
            routing.unicast_loads(src_ids, dst_ids, counts)
        )
        remote = src_ids != dst_ids
        np.add.at(cluster._received_elements, dst_ids[remote], counts[remote])

    def _collect_multicasts(self, routing) -> dict[str, list[tuple]]:
        """Resolve the multicast stream into per-tag records of arrays.

        Per tag and in registration order: ``(group ids, payload,
        sources, members, fanouts)``, the last three naming routing
        indices — every group's source, the groups' destination members
        laid end to end, and how many each group has.
        """
        lookup = routing.compute_idx
        by_tag: dict[str, list[tuple]] = {}
        for origins, members, offsets, ids, payload, tag in self._multicasts:
            by_tag.setdefault(tag, []).append(
                (ids, payload, lookup[origins], lookup[members], np.diff(offsets))
            )
        return by_tag

    def _deliver_multicasts(self, phases: dict | None = None) -> None:
        """Deliver and charge the round's multicast stream in bulk.

        Group ids are lifted into a per-tag global id space (each
        record's local ids shifted by a running base and materialized by
        :func:`_concat_parts`), so one grouping pass per tag
        covers every replicated element of the round; global ids ascend
        in registration x local-id order, which keeps per-``(dst, tag)``
        byte order identical to one multicast per group, in that order.  Each
        ``(present group, member)`` pair is a row (a CSR gather, no loop
        over groups); rows are grouped by destination with the same
        stable primitive and a repeated pair — sets, not lists — is
        dropped.  A destination one group serves receives that group's
        slice of the grouped payload as a zero-copy view (a
        whole-relation broadcast moves no bytes); one served by several
        receives one gathered chunk, its groups in ascending-gid order.
        The same rows charge every group's Steiner tree through one
        :meth:`~repro.topology.steiner.RoutingIndex.multicast_loads`
        call, added to the ledger's open round beside the unicasts'.
        """
        cluster = self._cluster
        routing = cluster.oracle.routing_index
        storage = cluster._storage
        t0 = perf_counter() if phases is not None else 0.0
        by_tag = self._collect_multicasts(routing)
        if phases is not None:
            phases["t_group_s"] += perf_counter() - t0
        charges: list[tuple] = []
        for tag, records in by_tag.items():
            t1 = perf_counter() if phases is not None else 0.0
            ids, payloads, *table = zip(*records)
            bases = accumulate(map(len, table[2]), initial=0)
            order, uniques, starts, ends = group_slices(
                _concat_parts(list(zip(ids, bases)))
            )
            all_payload, sources, members, fanouts = map(
                _concatenated, (payloads, *table)
            )
            sorted_payload = all_payload[order]
            if phases is not None:
                t2 = perf_counter()
                phases["t_group_s"] += t2 - t1
            # one row per (present group, member)
            present = uniques.astype(np.intp)
            counts = ends - starts
            sources = sources[present]
            fanout = fanouts[present]
            row_dst = members[
                concat_ranges((np.cumsum(fanouts) - fanouts)[present], fanout)
            ]
            row_group = np.repeat(np.arange(len(present)), fanout)
            charges.append((sources, row_dst, fanout, counts))
            # group rows by destination — stable, so rows stay in
            # ascending-gid order within a dst, exactly the per-group
            # loop's append order, and a repeated pair is adjacent
            r_order, r_uniques, r_starts, r_ends = group_slices(row_dst)
            row_dst, row_group = row_dst[r_order], row_group[r_order]
            repeated = (row_dst[1:] == row_dst[:-1]) & (
                row_group[1:] == row_group[:-1]
            )
            if repeated.any():
                keep = np.concatenate(([True], ~repeated))
                row_dst, row_group = row_dst[keep], row_group[keep]
                r_starts = np.searchsorted(row_dst, r_uniques, side="left")
                r_ends = np.searchsorted(row_dst, r_uniques, side="right")
            lengths = counts[row_group]
            # the destinations several groups serve share one gather,
            # each taking its slice of it
            single = r_ends - r_starts == 1
            shared = ~np.repeat(single, r_ends - r_starts)
            gathered = sorted_payload[
                concat_ranges(starts[row_group[shared]], lengths[shared])
            ]
            sizes = np.add.reduceat(lengths, r_starts)
            gathered_his = np.cumsum(np.where(single, 0, sizes))
            first = row_group[r_starts]
            los = np.where(single, starts[first], gathered_his - sizes)
            his = np.where(single, ends[first], gathered_his)
            positions = np.searchsorted(routing.compute_idx, r_uniques)
            for where, source in ((single, sorted_payload), (~single, gathered)):
                storage.install(
                    tag, positions[where], los[where], his[where], source
                )
            remote = sources[row_group] != row_dst
            np.add.at(
                cluster._received_elements, row_dst[remote], lengths[remote]
            )
            if phases is not None:
                delivered = phases["delivered_by_tag"]
                delivered[tag] = delivered.get(tag, 0) + int(lengths.sum())
                phases["t_deliver_s"] += perf_counter() - t2
        t3 = perf_counter() if phases is not None else 0.0
        sources, terminals, fanout, counts = (
            np.concatenate(column) for column in zip(*charges)
        )
        stops = np.cumsum(fanout)
        cluster.ledger.add_link_loads(
            routing.multicast_loads(
                sources, terminals, stops - fanout, stops, counts
            )
        )
        if phases is not None:
            phases["t_charge_s"] += perf_counter() - t3

    def _annotate_round(self, tracer, phases: dict) -> None:
        """Attach ledger-derived attrs to the enclosing round span.

        Called after ``close_round``: the round span carries the
        round's cost and the edge that sets it, its most-loaded edge,
        and the registered payload volume per tag, beside the
        finalizer's ``phases`` (its time split and delivered volume).
        These attributes are the round's metrics too: the registry
        folds them when the span closes.
        """
        ledger = self._cluster.ledger
        index = ledger.num_rounds - 1
        bottleneck = ledger.bottleneck(index)
        elements = self._elements_by_tag()
        attrs = {
            "round": index,
            "round_cost": ledger.round_cost(index),
            "bottleneck_edge": bottleneck and "{}->{}".format(*bottleneck[0]),
            "max_edge_load": int(ledger.link_loads(index).max(initial=0)),
            "elements_by_tag": elements,
            "bytes_by_tag": {
                tag: count * BITS_PER_ELEMENT // 8
                for tag, count in elements.items()
            },
        }
        tracer.annotate(**attrs, **phases)

    def _elements_by_tag(self) -> dict[str, int]:
        """Registered (pre-replication) element counts per tag."""
        elements: dict[str, int] = {}
        for *_, payload, tag in self._unicast_stream:
            elements[tag] = elements.get(tag, 0) + len(payload)
        for *_, payload, tag in self._multicasts:
            elements[tag] = elements.get(tag, 0) + len(payload)
        return elements


class Cluster:
    """Tree topology + per-node storage + cost accounting."""

    def __init__(
        self,
        tree: TreeTopology,
        distribution: Distribution | None = None,
    ) -> None:
        self._tree = tree
        # The expensive per-topology structures (routing index,
        # compute order) come from the artifact layer: prebuilt and
        # shared when a session or one-shot run scope installed an
        # ArtifactCache, private and fresh otherwise.
        self._artifacts = artifacts = resolve_artifacts(tree)
        self.oracle = artifacts.oracle
        self.ledger = CostLedger(tree)
        self._storage = ColumnarStore(artifacts.compute_order)
        # remote arrivals per node of the routing index
        self._received_elements = np.zeros(len(tree.nodes), dtype=np.int64)
        self._round_open = False
        if distribution is not None:
            self.load(distribution)

    @property
    def tree(self) -> TreeTopology:
        return self._tree

    @property
    def artifacts(self) -> TopologyArtifacts:
        """The per-topology structures this cluster runs on."""
        return self._artifacts

    @property
    def compute_order(self) -> tuple:
        """The compute nodes in canonical order (artifact-shared).

        Every node index the round API takes — sources, targets, group
        sources, destination members — is a position in this tuple.
        """
        return self._artifacts.compute_order

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #

    def load(self, distribution: Distribution) -> None:
        """Install an initial placement (``X_0``) into node storage.

        One table per tag, tags in sorted order: the store's contents
        and insertion order are a function of the placement alone.
        """
        distribution.validate_for(self._tree)
        # a node outside the tree holds nothing (validated): -1, dropped
        owners = np.fromiter(
            map(self._artifacts.compute_position.get, distribution.node_order, repeat(-1)),
            np.intp,
        )
        for tag in sorted(distribution.tags):
            values, offsets = distribution.column(tag)
            self._storage.install(tag, owners, offsets[:-1], offsets[1:], values)

    def local(self, node: NodeId, tag: str) -> np.ndarray:
        """All elements ``node`` currently holds under ``tag``.

        Returns a **read-only** array (``writeable=False``): the store
        compacts its chunk list lazily and serves the cached compacted
        column as a zero-copy view, so mutating the return value would
        silently rewrite storage — attempting it raises instead.
        """
        return self._storage.view(node, str(tag))

    def column(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Relation ``tag`` across all compute nodes: ``(owners, values)``.

        ``values`` is every node's :meth:`local` view end to end in
        canonical compute order and ``owners[i]`` is the compute-order
        index of the node holding ``values[i]`` — ascending, in the
        routing index's narrow lookup dtype; both are read-only.  A tag
        held as one table (a loaded relation, a unicast delivery) is
        served as stored, no copy; see :mod:`repro.sim.storage` for the
        other case.  This is what the two round calls consume — a hash
        partition cuts it into runs
        (:func:`~repro.util.grouping.runs_by_target`), a replication
        groups it by owner — and so do the segmented local kernels.
        """
        return self._storage.column(str(tag))

    def take(self, node: NodeId, tag: str) -> np.ndarray:
        """Remove and return ``node``'s data under ``tag`` (read-only)."""
        return self._storage.pop(node, str(tag))

    def local_size(self, node: NodeId, tag: str | None = None) -> int:
        """Element count at ``node`` for one tag or across all tags."""
        return self._storage.size(node, None if tag is None else str(tag))

    def received_elements(self, node: NodeId) -> int:
        """Elements delivered to ``node`` from other nodes (MPC measure)."""
        index = self.oracle.routing_index.index_of.get(node)
        return 0 if index is None else int(self._received_elements[index])

    # ------------------------------------------------------------------ #
    # rounds
    # ------------------------------------------------------------------ #

    @contextmanager
    def round(self) -> Iterator[RoundContext]:
        """Open a communication round.

        All transfers registered inside the ``with`` block belong to the same
        round; deliveries and cost accounting happen when the block exits.
        """
        if self._round_open:
            raise ProtocolError("a round is already in progress")
        self._round_open = True
        context = RoundContext(self)
        auditor = get_auditor()
        before = auditor.before_round(self) if auditor.enabled else None
        # one span per round, covering both the protocol's local work
        # and finalization; finalize still runs only on clean exit
        with get_tracer().span(
            f"round {self.ledger.num_rounds}", category="round"
        ):
            try:
                yield context
            finally:
                self._round_open = False
            context._finalize()
            if auditor.enabled:
                auditor.check_round(self, context, before)

    @property
    def rounds_executed(self) -> int:
        return self.ledger.num_rounds

