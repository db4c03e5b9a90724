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
* :meth:`RoundContext.exchange_multicast_runs` — replication: one
  ``(source, destination set, count)`` triple per stretch of the
  payload, such as a replicated relation cut into runs of equal
  ``(source, hashed owners)`` rows by :func:`~repro.util.grouping.row_runs`.

The two calls are twins: run ``i`` is the next ``counts[i]`` elements,
each run is one Section-2 transfer (an empty run sends nothing), each
``(dst, tag)`` receives its runs in registration order, and the payload
is stored as given, so it must not be written after the call.  Each
call appends one record to one of two streams, unicast and multicast,
and each stream has one record shape.  Finalization works on runs,
never on a per-element id column (no per-destination masks, no
per-group Python loops), and delivers and charges every transfer in
bulk.  A unicast tag puts its runs in their stable order by
destination: when the destinations never fall (a hash partition) that
order is the identity and the payload is installed as registered, one
stretch per destination; otherwise (a sorting scatter's source-major
runs) the runs are sorted once and the payload gathered run by run.  A
multicast tag takes its run bounds from one ``cumsum`` of the counts
and groups its ``(run, member)`` rows by destination, with no payload
gather.  Unicasts are charged run by run, with no aggregation by
``(src, dst)`` pair.  Nothing in the data plane is memoized: every
grouping runs the kernel on the arrays it is given.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from time import perf_counter
from typing import Iterator, Sequence

import numpy as np

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.obs.audit import get_auditor
from repro.obs.tracer import get_tracer
from repro.sim.ledger import BITS_PER_ELEMENT, CostLedger
from repro.sim.storage import ColumnarStore
from repro.topology.artifacts import resolve_artifacts
from repro.topology.tree import NodeId, TreeTopology
from repro.util.grouping import concat_ranges, gather_ranges, group_slices


def _concatenated(parts: Sequence) -> np.ndarray:
    """``np.concatenate(parts)``, minus the copy when there is one part."""
    return np.asarray(parts[0]) if len(parts) == 1 else np.concatenate(parts)


def _group_by_destination(parts: Sequence[tuple]) -> tuple:
    """One tag's unicast parts grouped by destination: ``(payload,
    destinations, starts, ends)``, destination ``k`` receiving
    ``payload[starts[k]:ends[k]]`` in registration order.

    A part is ``(dst_ids, counts, payload)``, run ``i`` being the next
    ``counts[i]`` elements, bound for ``dst_ids[i]``.  The runs are put
    in their stable order by destination — a stable sort of runs puts
    their elements in the order a stable sort of the elements would —
    and every destination's runs are then one stretch.  Runs whose
    destinations never fall (a hash partition cut by
    :func:`~repro.util.grouping.runs_by_target`) are already in that
    order: it is the identity, and the payload is returned as registered,
    no copy when there is one part.  Otherwise the payload is gathered
    run by run (:func:`~repro.util.grouping.gather_ranges`; a sorting
    scatter's source-major runs are one transpose).
    """
    dst_ids, counts, payload = map(_concatenated, zip(*parts))
    if (dst_ids[1:] < dst_ids[:-1]).any():
        order = group_slices(dst_ids)[0]
        payload = gather_ranges(
            payload, (np.cumsum(counts) - counts)[order], counts[order]
        )
        dst_ids, counts = dst_ids[order], counts[order]
    # each destination's last run, and where its stretch ends
    last = np.ones(len(dst_ids), dtype=bool)
    np.not_equal(dst_ids[1:], dst_ids[:-1], out=last[:-1])
    last = np.flatnonzero(last)
    ends = np.cumsum(counts)[last]
    return payload, dst_ids[last], np.concatenate(([0], ends[:-1])), ends


class RoundContext:
    """Collects the transfers of one round; created by :meth:`Cluster.round`."""

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        # the multicast stream, in registration order: (origins, members,
        # offsets, counts, payload, tag), nodes as compute-order indices,
        # the payload laid end to end.  Run i is the next counts[i]
        # elements, from origins[i] to the set
        # members[offsets[i]:offsets[i + 1]].  Delivery is deferred to
        # finalization like the unicast stream's, so the round's
        # replicated traffic is grouped with one pass per tag and charged
        # with one vectorized Steiner-flow call.
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
        """Validate a parallel index array (``targets`` / ``counts``).

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

    @staticmethod
    def _check_counts(counts: np.ndarray, payload: np.ndarray, call: str) -> None:
        """Run counts are non-negative and lay the runs end to end."""
        if counts.size and int(counts.min()) < 0:
            raise ProtocolError("run counts must be non-negative")
        if int(counts.sum()) != len(payload):
            raise ProtocolError(
                f"{len(payload)} values but the run counts sum to "
                f"{int(counts.sum())}; {call} lays the runs end to end"
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
        router.  The payload is stored as given, not copied: it must
        not be written to after the call.  Runs whose targets never
        fall — a hash partition's — are delivered as registered, one
        stretch per target and no gather; other orders (a sorting
        scatter's source-major runs) cost one gather of the payload at
        finalization.
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
        self._check_counts(run_lengths, payload, "exchange_runs")
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

    def exchange_multicast_runs(
        self, sources, destinations, counts, values, *, tag: str
    ) -> None:
        """Replicate a payload in runs: run ``i`` is the next
        ``counts[i]`` elements of ``values``, travelling from compute
        node ``compute_order[sources[i]]`` to every node of destination
        set ``i``.

        The multicast twin of :meth:`exchange_runs`: one registration
        carries every node's replicated elements (one run per distinct
        ``(source, hashed owners)`` row in TreeIntersect, one per segment
        and owner in the cartesian tile routing).  ``destinations``
        holds the sets as compute-order indices, which cannot name a
        router: an integer ``(runs, k)`` matrix, one set per row, or a
        CSR ``(members, offsets)`` tuple, set ``i`` being
        ``members[offsets[i]:offsets[i + 1]]``.  They are *sets*: a
        member listed twice is delivered once.  Each run is one
        Section-2 multicast, routed on the Steiner tree of its source
        and set so that every link carries the payload once; an empty
        run sends nothing, and a run with elements needs at least one
        destination.  Each ``(dst, tag)`` receives its runs in
        registration order.  The payload is stored as given, not
        copied: it must not be written to after the call.
        """
        self._check_open()
        payload = self._as_payload(values)
        origins = self._as_indices(sources, "sources")
        run_lengths = self._as_indices(counts, "counts")
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
                    "destinations must be an integer (runs, k) matrix "
                    "or a (members, offsets) tuple"
                )
            members = matrix.ravel()
            offsets = np.arange(len(matrix) + 1) * matrix.shape[1]
        if not len(origins) == len(offsets) - 1 == len(run_lengths):
            raise ProtocolError(
                f"{len(run_lengths)} counts but {len(origins)} sources and "
                f"{len(offsets) - 1} destination sets; exchange_multicast_runs "
                "needs one source, one destination set and one count per run"
            )
        count = len(self._cluster.compute_order)
        self._check_index_span(origins, count, "source indices", "compute nodes")
        self._check_index_span(
            members, count, "destination members", "compute nodes"
        )
        self._check_counts(run_lengths, payload, "exchange_multicast_runs")
        if len(payload) == 0:
            return
        if ((offsets[1:] == offsets[:-1]) & (run_lengths > 0)).any():
            raise ProtocolError("multicast needs at least one destination")
        self._multicasts.append(
            (
                origins,
                members,
                offsets,
                run_lengths.astype(np.intp, copy=False),
                payload,
                str(tag),
            )
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

        All transfers are grouped by ``(dst, tag)`` for delivery — per
        tag across every scatter of the round, over runs
        (:func:`_group_by_destination`: a stable sort of the runs only
        when their destinations fall, the identity otherwise; the
        multicast rows in :meth:`_deliver_multicasts`), with no memo in
        front of it — and charged per routing unit: every unicast run
        feeds the vectorized tree-flow charger
        (:meth:`~repro.topology.steiner.RoutingIndex.unicast_loads`,
        one LCA per run, no pair aggregation), multicasts their Steiner
        sets; each kernel's ``(2, links)`` load array goes to the
        ledger whole (:meth:`CostLedger.add_link_loads`).  Addition over
        element counts is commutative, so the per-edge loads equal a
        transfer-by-transfer path walk's exactly (the Section-2 model in
        ``tests/model/``).

        When a recording tracer is installed, the finalizer splits its
        wall time into *group* (collection, the unicast run order and
        any payload gather, the multicast run bounds), *deliver*
        (storage installs) and *charge* (tree-flow accounting and
        arrivals) phases, counts the delivered elements per tag, and
        annotates the enclosing round span with both alongside the
        ledger-derived round attrs; with the default no-op tracer no
        clock is read.
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
            by_tag: dict[str, list[tuple]] = {}
            for _, targets, counts, payload, tag in self._unicast_stream:
                by_tag.setdefault(tag, []).append((targets, counts, payload))
            # group: per tag, the runs of the whole round in registration
            # order, so per-(dst, tag) contents match a transfer-by-transfer
            # delivery exactly
            grouped = [
                (tag, *_group_by_destination(parts))
                for tag, parts in by_tag.items()
            ]
            if phases is not None:
                t1 = perf_counter()
                phases["t_group_s"] += t1 - t0
            # deliver: the grouping left each payload cut by destination,
            # one stretch per compute-order index: it is the table
            for tag, payload, destinations, starts, ends in grouped:
                if phases is not None:
                    delivered = phases["delivered_by_tag"]
                    delivered[tag] = delivered.get(tag, 0) + len(payload)
                storage.install(tag, destinations, starts, ends, payload)
            if phases is not None:
                t2 = perf_counter()
                phases["t_deliver_s"] += t2 - t1
            self._charge_unicasts()
            if phases is not None:
                phases["t_charge_s"] += perf_counter() - t2

        if self._multicasts:
            self._deliver_multicasts(phases)
        cluster.ledger.close_round()
        if phases is not None:
            self._annotate_round(tracer, phases)

    def _charge_unicasts(self) -> None:
        """Charge the round's unicast runs to the ledger and count their
        arrivals: every run of every record, no aggregation by pair
        first (the loads are sums over runs, and a pair rarely carries
        more than one run), in one
        :meth:`~repro.topology.steiner.RoutingIndex.unicast_loads` call."""
        cluster = self._cluster
        routing = cluster.oracle.routing_index
        sources, targets, counts, *_ = zip(*self._unicast_stream)
        sources, targets, counts = map(_concatenated, (sources, targets, counts))
        # ``take``: the indices come narrow, which ``[]`` widens first
        src_ids = routing.compute_idx.take(sources)
        dst_ids = routing.compute_idx.take(targets)
        cluster.ledger.add_link_loads(
            routing.unicast_loads(src_ids, dst_ids, counts)
        )
        remote = src_ids != dst_ids
        arrivals = np.bincount(
            dst_ids[remote], counts[remote], minlength=routing.num_nodes
        )
        cluster._received_elements += arrivals.astype(np.int64)

    def _collect_multicasts(self, routing) -> dict[str, list[tuple]]:
        """Resolve the multicast stream into per-tag records of arrays.

        Per tag and in registration order: ``(counts, payload, sources,
        members, fanouts)``, the last three naming routing indices —
        every run's source, the runs' destination members laid end to
        end, and how many each run has.
        """
        lookup = routing.compute_idx
        by_tag: dict[str, list[tuple]] = {}
        for origins, members, offsets, counts, payload, tag in self._multicasts:
            by_tag.setdefault(tag, []).append(
                (counts, payload, lookup[origins], lookup[members], np.diff(offsets))
            )
        return by_tag

    def _deliver_multicasts(self, phases: dict | None = None) -> None:
        """Deliver and charge the round's multicast stream in bulk.

        A tag's records are laid end to end in registration order, so
        its runs are too: run ``k`` ends at ``cumsum(counts)[k]`` of the
        concatenated payload, and no element is sorted or gathered to
        find its run.  Runs without elements are dropped.  Each ``(run,
        member)`` pair is a row (a CSR gather, no loop over runs); rows
        are grouped by destination with one stable sort over the rows,
        so each destination's runs keep registration order, and a
        repeated pair — sets, not lists — is dropped.  A destination one
        run serves receives that run's slice of the payload as a
        zero-copy view (a whole-relation broadcast moves no bytes); one
        served by several receives one gathered chunk, its runs in
        registration order.  The same rows charge every run's Steiner
        tree through one
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
            counts, payload, sources, members, fanouts = map(
                _concatenated, zip(*records)
            )
            # the runs that carry elements, and where each ends
            ends = np.cumsum(counts)
            live = np.flatnonzero(counts)
            counts, ends, sources = counts[live], ends[live], sources[live]
            starts = ends - counts
            if phases is not None:
                t2 = perf_counter()
                phases["t_group_s"] += t2 - t1
            # one row per (live run, member)
            fanout = fanouts[live]
            row_dst = members[
                concat_ranges((np.cumsum(fanouts) - fanouts)[live], fanout)
            ]
            row_run = np.repeat(np.arange(len(live)), fanout)
            charges.append((sources, row_dst, fanout, counts))
            # group rows by destination — stable, so rows stay in
            # registration order within a dst, exactly the per-run
            # loop's append order, and a repeated pair is adjacent
            r_order, r_uniques, r_starts, r_ends = group_slices(row_dst)
            row_dst, row_run = row_dst[r_order], row_run[r_order]
            repeated = (row_dst[1:] == row_dst[:-1]) & (
                row_run[1:] == row_run[:-1]
            )
            if repeated.any():
                keep = np.concatenate(([True], ~repeated))
                row_dst, row_run = row_dst[keep], row_run[keep]
                r_starts = np.searchsorted(row_dst, r_uniques, side="left")
                r_ends = np.searchsorted(row_dst, r_uniques, side="right")
            lengths = counts[row_run]
            # the destinations several runs serve share one gather,
            # each taking its slice of it
            single = r_ends - r_starts == 1
            shared = ~np.repeat(single, r_ends - r_starts)
            gathered = gather_ranges(
                payload, starts[row_run[shared]], lengths[shared]
            )
            sizes = np.add.reduceat(lengths, r_starts)
            gathered_his = np.cumsum(np.where(single, 0, sizes))
            first = row_run[r_starts]
            los = np.where(single, starts[first], gathered_his - sizes)
            his = np.where(single, ends[first], gathered_his)
            positions = np.searchsorted(routing.compute_idx, r_uniques)
            for where, source in ((single, payload), (~single, gathered)):
                storage.install(
                    tag, positions[where], los[where], his[where], source
                )
            remote = sources[row_run] != row_dst
            arrivals = np.bincount(
                row_dst[remote], lengths[remote], minlength=routing.num_nodes
            )
            cluster._received_elements += arrivals.astype(np.int64)
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
        # The per-topology path oracle comes from the artifact layer:
        # prebuilt and shared when a session or one-shot run scope
        # installed an ArtifactCache, private and fresh otherwise.
        self.oracle = resolve_artifacts(tree).oracle
        self.ledger = CostLedger(tree)
        self._storage = ColumnarStore(tree.compute_nodes)
        # remote arrivals per node of the routing index
        self._received_elements = np.zeros(len(tree.nodes), dtype=np.int64)
        self._round_open = False
        if distribution is not None:
            self.load(distribution)

    @property
    def tree(self) -> TreeTopology:
        return self._tree

    @property
    def compute_order(self) -> tuple:
        """The tree's compute nodes (:attr:`TreeTopology.compute_nodes`).

        Every node index the round API takes — sources, targets,
        destination members — is a position in this tuple.
        """
        return self._tree.compute_nodes

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
            map(self._tree.compute_position.get, distribution.node_order, repeat(-1)),
            np.intp,
        )
        for tag in sorted(distribution.tags):
            values, offsets = distribution.column(tag)
            self._storage.install(tag, owners, offsets[:-1], offsets[1:], values)

    def load_column(self, tag: str, values, offsets: np.ndarray) -> None:
        """Install relation ``tag`` held in compute order: node
        ``compute_order[i]`` gets ``values[offsets[i]:offsets[i + 1]]``.

        What :meth:`load` does per tag, for a column a protocol already
        holds in compute order (a superstep's messages), with no
        :class:`~repro.data.distribution.Distribution` around it.  The
        values are referenced, not copied.
        """
        values = RoundContext._as_payload(values)
        count = len(self.compute_order)
        if len(offsets) != count + 1 or offsets[-1] != len(values):
            raise ProtocolError(
                f"{len(offsets)} offsets over {len(values)} values; a column "
                f"over {count} compute nodes needs {count + 1}, the last "
                "one its length"
            )
        self._storage.install(
            str(tag), np.arange(count), offsets[:-1], offsets[1:], values
        )

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

    def take_column(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Remove relation ``tag`` from every node; return it as
        :meth:`column` does."""
        return self._storage.pop_column(str(tag))

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

