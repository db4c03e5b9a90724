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
and each stream has one record shape.

Both calls lay out their runs (:meth:`Cluster.lay_out`, a
:class:`~repro.sim.layout.RoundLayout`: the rows grouped by destination
and the path half of the charge) and ship the payload along the layout
(:meth:`RoundContext.exchange_layout`), the one delivery path.  A
protocol whose rounds keep their runs lays out once and ships every round
along the layout, with per-run counts of its own for a delta leg.
Finalization works on runs, never on a per-element id column (no
per-destination masks, no per-group Python loops), and delivers and
charges every transfer in bulk: unicast runs whose destinations never
fall (a hash partition) install the payload as registered, one stretch
per destination; other runs (a sorting scatter's source-major runs) are
gathered run by run; multicast rows take their run bounds from one
``cumsum`` of the counts.  Runs are charged as they are, with no
aggregation by ``(src, dst)`` pair.  Nothing in the data plane is
memoized across runs: a layout lives as long as its caller keeps it.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from time import perf_counter
from typing import Iterator

import numpy as np

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.obs.audit import get_auditor
from repro.obs.tracer import get_tracer
from repro.sim.layout import RoundLayout
from repro.sim.ledger import BITS_PER_ELEMENT, CostLedger
from repro.sim.storage import ColumnarStore
from repro.topology.artifacts import resolve_artifacts
from repro.topology.tree import NodeId, TreeTopology
from repro.util.grouping import concatenated


class RoundContext:
    """Collects the transfers of one round; created by :meth:`Cluster.round`."""

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        # (layout, counts, payload) per registration, in registration
        # order; delivery and charge are deferred to finalization, so
        # the whole round is charged with one push of the tree-flow
        # kernel, and registration order is what keeps storage
        # byte-identical to one transfer per run even when calls mix on
        # one (dst, tag)
        self._shipments: list[tuple] = []
        self._closed = False

    @property
    def _unicast_stream(self) -> list[tuple]:
        """The unicast records, in registration order: ``(sources,
        targets, counts, payload, tag)``, nodes as compute-order indices,
        run ``i`` being ``counts[i]`` elements from ``sources[i]`` to
        ``targets[i]``."""
        return [
            (layout.sources, layout.members, counts, payload, layout.tag)
            for layout, counts, payload in self._shipments
            if not layout.multicast
        ]

    @property
    def _multicasts(self) -> list[tuple]:
        """The multicast records, in registration order: ``(origins,
        members, offsets, counts, payload, tag)``, run ``i`` being the
        next ``counts[i]`` elements, from ``origins[i]`` to the set
        ``members[offsets[i]:offsets[i + 1]]``."""
        return [
            (layout.sources, layout.members, layout.offsets, counts, payload, layout.tag)
            for layout, counts, payload in self._shipments
            if layout.multicast
        ]

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
    def _check_signs(counts: np.ndarray) -> None:
        """Run counts are non-negative."""
        if counts.size and int(counts.min()) < 0:
            raise ProtocolError("run counts must be non-negative")

    @staticmethod
    def _check_total(counts: np.ndarray, payload: np.ndarray, call: str) -> None:
        """Run counts lay the runs end to end."""
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
        not be written to after the call.  The runs are laid out
        (:meth:`Cluster.lay_out`) and shipped once
        (:meth:`exchange_layout`).
        """
        self._check_open()
        payload = self._as_payload(values)
        layout = self._cluster.lay_out(sources, targets, counts, tag=tag)
        self._ship(layout, payload, layout.counts)

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
        if isinstance(destinations, tuple) and len(destinations) == 2:
            members, offsets = destinations
        else:
            matrix = np.asarray(destinations)
            if matrix.ndim != 2 or matrix.dtype.kind not in "iu":
                raise ProtocolError(
                    "destinations must be an integer (runs, k) matrix "
                    "or a (members, offsets) tuple"
                )
            members = matrix.ravel()
            offsets = np.arange(len(matrix) + 1) * matrix.shape[1]
        layout = self._cluster.lay_out(
            sources, members, counts, offsets=offsets, tag=tag
        )
        self._ship(layout, payload, layout.counts)

    def exchange_layout(self, layout: RoundLayout, values, counts=None) -> None:
        """Ship ``values`` along ``layout`` (:meth:`Cluster.lay_out`):
        run ``i`` is the next ``counts[i]`` elements, by default the
        counts it was laid out with.

        The round is the one its two calls would register for the same
        runs and counts — the same stream record, the same deliveries
        and the same charge — but what the layout already knows is not
        derived again: the grouping of its rows by destination and the
        path half of the charge.  A run of count zero sends nothing and
        stays in the layout, so a delta leg ships fewer elements along
        the runs of a full one.  The payload is stored as given, not
        copied: it must not be written to after the call.
        """
        self._check_open()
        payload = self._as_payload(values)
        if layout.routing is not self._cluster.oracle.routing_index:
            raise ProtocolError("the layout was laid out on another tree")
        if counts is None:
            run_lengths = layout.counts
        else:
            run_lengths = self._as_indices(counts, "counts")
            if len(run_lengths) != layout.runs:
                raise ProtocolError(
                    f"{len(run_lengths)} counts but the layout has "
                    f"{layout.runs} runs; a shipment needs one count per run"
                )
            self._check_signs(run_lengths)
        self._ship(layout, payload, run_lengths.astype(np.intp, copy=False))

    def _ship(self, layout: RoundLayout, payload: np.ndarray, counts: np.ndarray) -> None:
        """Register a shipment whose layout and counts are checked."""
        call = "exchange_multicast_runs" if layout.multicast else "exchange_runs"
        self._check_total(counts, payload, call)
        if len(payload) == 0:
            return
        offsets = layout.offsets
        if layout.multicast and ((offsets[1:] == offsets[:-1]) & (counts > 0)).any():
            raise ProtocolError("multicast needs at least one destination")
        self._shipments.append((layout, counts, payload))

    # ------------------------------------------------------------------ #
    # finalization
    # ------------------------------------------------------------------ #

    def _finalize(self) -> None:
        self._check_open()
        self._closed = True
        self._finalize_bulk()

    def _finalize_bulk(self) -> None:
        """Deliver and charge the whole round, shipment by shipment.

        A tag's shipments of one kind are delivered as one, their runs
        and payloads end to end (:meth:`RoundLayout.merged
        <repro.sim.layout.RoundLayout.merged>`); unicast tags go first,
        then multicast ones, each in registration order — exactly the
        order the per-transfer path produces, so every ``(dst, tag)``
        receives what one transfer per run would append.  Each layout
        cuts its payload into one stretch per destination and counts
        the arrivals (:meth:`RoundLayout.ship
        <repro.sim.layout.RoundLayout.ship>`: the payload as registered
        when the rows are the runs in order, one gathered chunk
        otherwise, a view for a multicast destination one run serves),
        and storage installs the tables.  The charge is one path half
        per kind — the kind's layouts merged when the round has several,
        so a fresh round finds its LCAs in one call — with the
        shipments' counts, added in one
        :meth:`~repro.topology.steiner.RoutingIndex.path_loads` call —
        no aggregation by ``(src, dst)`` pair, a run rarely sharing
        one — and handed to the ledger whole
        (:meth:`CostLedger.add_link_loads`).  Addition over element
        counts is commutative, so the per-edge loads equal a
        transfer-by-transfer path walk's exactly (the Section-2 model
        in ``tests/model/``).

        When a recording tracer is installed, the finalizer splits its
        wall time into *group* (the layouts' rows on first use, the
        stretches, any payload gather and the arrivals), *deliver*
        (storage installs) and *charge* (the path halves on first use
        and the tree-flow accounting) phases, counts the delivered
        elements per tag, and annotates the enclosing round span with
        both alongside the ledger-derived round attrs; with the default
        no-op tracer no clock is read.
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
        t0 = perf_counter() if phases is not None else 0.0
        by_tag: dict[tuple, list[tuple]] = {}
        for shipment in self._shipments:
            layout = shipment[0]
            by_tag.setdefault((layout.multicast, layout.tag), []).append(shipment)
        shipments = []
        for key in sorted(by_tag, key=lambda k: k[0]):
            layouts, counts, payloads = zip(*by_tag[key])
            shipments.append(
                (*RoundLayout.merged(list(zip(layouts, counts))), concatenated(payloads))
            )
        by_kind: dict[bool, list[tuple]] = {}
        for layout, counts, _ in shipments:
            by_kind.setdefault(layout.multicast, []).append((layout, counts))
        arrivals = []
        for layout, counts, payload in shipments:
            tables, arrived = layout.ship(counts, payload)
            arrivals.append(arrived)
            if phases is not None:
                t1 = perf_counter()
                phases["t_group_s"] += t1 - t0
            for table in tables:
                storage.install(layout.tag, *table)
            if phases is not None:
                delivered = phases["delivered_by_tag"]
                delivered[layout.tag] = delivered.get(layout.tag, 0) + sum(
                    int((his - los).sum()) for _, los, his, _ in tables
                )
                t0 = perf_counter()
                phases["t_deliver_s"] += t0 - t1
        if shipments:
            routing = cluster.oracle.routing_index
            receivers, lengths = map(concatenated, zip(*arrivals))
            cluster._received_elements += np.bincount(
                receivers, lengths, minlength=routing.num_nodes
            ).astype(np.int64)
            cluster.ledger.add_link_loads(
                routing.path_loads(
                    [
                        (layout.paths, counts)
                        for layout, counts in map(RoundLayout.merged, by_kind.values())
                    ]
                )
            )
            if phases is not None:
                phases["t_charge_s"] += perf_counter() - t0
        cluster.ledger.close_round()
        if phases is not None:
            self._annotate_round(tracer, phases)

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
        for layout, _, payload in self._shipments:
            elements[layout.tag] = elements.get(layout.tag, 0) + len(payload)
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

    def lay_out(
        self, sources, members, counts, *, offsets=None, tag: str
    ) -> RoundLayout:
        """The layout of a registration's runs, to ship along with
        :meth:`RoundContext.exchange_layout` in this round or a later
        one.

        Run ``i`` travels from compute node ``compute_order[sources[i]]``
        to ``compute_order[members[i]]`` (the runs of
        :meth:`RoundContext.exchange_runs`), or, given CSR ``offsets``,
        to every node of the set ``members[offsets[i]:offsets[i + 1]]``
        (those of :meth:`RoundContext.exchange_multicast_runs`);
        ``counts`` are the counts shipped when a shipment names none.
        Both round calls lay out their runs here.
        """
        check = RoundContext
        origins = check._as_indices(sources, "sources")
        if offsets is None:
            members = check._as_indices(members, "targets")
            run_lengths = check._as_indices(counts, "counts")
            if not len(origins) == len(members) == len(run_lengths):
                raise ProtocolError(
                    f"{len(run_lengths)} counts but {len(origins)} sources "
                    f"and {len(members)} targets; exchange_runs needs "
                    "one source, one target and one count per run"
                )
            what = "target indices"
        else:
            run_lengths = check._as_indices(counts, "counts")
            members = check._as_indices(members, "destination members")
            offsets = check._as_indices(offsets, "destination offsets")
            if not len(offsets) or (
                offsets[0] != 0
                or offsets[-1] != len(members)
                or (offsets[1:] < offsets[:-1]).any()
            ):
                raise ProtocolError(
                    "destination offsets must rise from 0 to the "
                    f"{len(members)} members given"
                )
            if not len(origins) == len(offsets) - 1 == len(run_lengths):
                raise ProtocolError(
                    f"{len(run_lengths)} counts but {len(origins)} sources and "
                    f"{len(offsets) - 1} destination sets; exchange_multicast_runs "
                    "needs one source, one destination set and one count per run"
                )
            what = "destination members"
        count = len(self.compute_order)
        check._check_index_span(origins, count, "source indices", "compute nodes")
        check._check_index_span(members, count, what, "compute nodes")
        check._check_signs(run_lengths)
        return RoundLayout(
            self.oracle.routing_index,
            origins,
            members,
            offsets,
            run_lengths.astype(np.intp, copy=False),
            str(tag),
        )

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

