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

The hot paths are :meth:`RoundContext.exchange` and
:meth:`RoundContext.exchange_multicast`: a hashed shuffle (or a
replicating protocol) hands over its full values array plus a parallel
per-element index array — target node indices for unicasts, destination
-set indices for multicasts — the context groups the whole round with
one stable argsort per tag (no per-destination boolean masks, no
per-group Python loops), and round finalization delivers and charges
all grouped transfers in bulk.  ``send``/``multicast``/``scatter``
remain as thin wrappers over the same machinery, so protocols written
against the per-transfer API keep working and keep producing identical
ledgers.  Hash-routed protocols go one step further and register a whole
relation at once (:meth:`Cluster.column`,
:meth:`RoundContext.exchange_column`,
:meth:`RoundContext.exchange_multicast_column`): the same two streams,
with index arrays where the per-node calls carry one source node and
named destination sets.  Traffic that is already grouped by
``(source, destination)`` — a sorted fragment cut at the splitters, a
light node's proportional scatter — registers as *runs*
(:meth:`RoundContext.exchange_runs`): one ``(source, target, count)``
triple per stretch of the payload instead of one target per element.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import accumulate, repeat
from time import perf_counter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.obs.audit import get_auditor
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.sim.ledger import CostLedger
from repro.sim.storage import ColumnarStore
from repro.topology.artifacts import (
    TopologyArtifacts,
    resolve_artifacts,
    topology_fingerprint,
)
from repro.topology.tree import NodeId, TreeTopology
from repro.util.grouping import (
    cached_group_slices,
    concat_group_slices,
    concat_ranges,
    group_slices,
    index_dtype,
)

# ---------------------------------------------------------------------- #
# execution backends
# ---------------------------------------------------------------------- #
#
# Protocols construct their cluster through :func:`make_cluster`, which
# dispatches to the *active backend*: ``"sim"`` (this module's
# single-process :class:`Cluster`) or any substrate registered via
# :func:`register_backend` — ``"process"`` is the shared-memory
# multiprocessing substrate in :mod:`repro.parallel.backend`.  The
# active backend is thread-local so concurrent ``run_many`` plans can
# run under different backends without racing.

_BACKEND_FACTORIES: dict[str, Callable] = {}


class _BackendState(threading.local):
    def __init__(self) -> None:
        self.name = "sim"
        self.opts: dict = {}


_BACKEND_STATE = _BackendState()


def register_backend(name: str, factory: Callable) -> None:
    """Register a cluster factory ``factory(tree, distribution, **opts)``."""
    _BACKEND_FACTORIES[name] = factory


def reset_backend() -> None:
    """Restore this thread's backend to the default simulator.

    Forked worker processes call this on startup: a worker forked while
    the master sat inside ``use_backend("process")`` would otherwise
    inherit that state and recursively ask for a pool of its own.
    """
    _BACKEND_STATE.name = "sim"
    _BACKEND_STATE.opts = {}


def backend_names() -> tuple:
    """Names of the registered execution backends."""
    return tuple(sorted(_BACKEND_FACTORIES))


def current_backend() -> str:
    """The backend :func:`make_cluster` dispatches to in this thread."""
    return _BACKEND_STATE.name


def _resolve_backend(name: str) -> Callable:
    if name not in _BACKEND_FACTORIES and name == "process":
        # The process substrate registers itself on import; pull it in
        # lazily so the simulator has no hard dependency on it.
        import repro.parallel.backend  # noqa: F401
    try:
        return _BACKEND_FACTORIES[name]
    except KeyError:
        raise ProtocolError(
            f"unknown execution backend {name!r}; "
            f"registered: {backend_names()}"
        ) from None


@contextmanager
def use_backend(name: str, **opts) -> Iterator[None]:
    """Route :func:`make_cluster` to backend ``name`` within the block.

    ``opts`` are merged into every cluster construction (e.g.
    ``num_workers=4, oracle=True`` for the process backend).  The
    engine wraps protocol invocations in this context when the caller
    selects ``backend="process"``, so protocols themselves stay
    backend-agnostic.
    """
    _resolve_backend(name)
    previous_name, previous_opts = _BACKEND_STATE.name, _BACKEND_STATE.opts
    _BACKEND_STATE.name = name
    _BACKEND_STATE.opts = dict(opts)
    try:
        yield
    finally:
        _BACKEND_STATE.name = previous_name
        _BACKEND_STATE.opts = previous_opts


def make_cluster(
    tree: TreeTopology, distribution: Distribution | None = None, **kwargs
) -> "Cluster":
    """Build a cluster on the active execution backend.

    This is the constructor every protocol uses; keyword arguments the
    protocol passes (``bits_per_element``) override same-named backend
    options installed by :func:`use_backend`.
    """
    factory = _resolve_backend(_BACKEND_STATE.name)
    merged = {**_BACKEND_STATE.opts, **kwargs}
    return factory(tree, distribution, **merged)


def _concatenated(parts: Sequence) -> np.ndarray:
    """``np.concatenate(parts)``, minus the copy when there is one part."""
    return np.asarray(parts[0]) if len(parts) == 1 else np.concatenate(parts)


def _pair_counts(keys: list, run_keys: list, run_counts: list, size: int) -> tuple:
    """``(src, dst, count)`` arrays ascending by pair, no zero count, from
    flat ``src * size + dst`` keys of one element each and of one
    non-empty run each.  One integer ``bincount`` when the ``size²`` bins
    are at most four per key, else one sort: memory follows the round's
    traffic, never the square of the node count."""
    keys = np.concatenate(keys) if keys else np.empty(0, np.intp)
    runs = counts = keys[:0]
    if run_keys:
        runs, counts = np.hstack(run_keys), np.hstack(run_counts)
    if size * size <= 4 * (len(keys) + len(runs)):
        dense = np.bincount(keys, minlength=size * size)
        np.add.at(dense, runs, counts)
        flat = np.flatnonzero(dense)
        return (*np.divmod(flat, size), dense[flat])
    flat = np.concatenate([keys, runs])
    order = np.argsort(flat)
    flat = flat[order]
    fresh = np.ones(len(flat), dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    weights = np.ones(len(flat), dtype=np.intp)
    weights[len(keys) :] = counts
    counts = np.add.reduceat(weights[order] if len(runs) else weights, starts)
    return (*np.divmod(flat[starts], size), counts)


class RoundContext:
    """Collects the transfers of one round; created by :meth:`Cluster.round`."""

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        # the multicast stream, in registration order: (source, members,
        # offsets, per-element group ids, payload, tag).  A group is a
        # (source, destination set) pair, and index arrays are the form
        # it takes: exchange_multicast_column() records hold each
        # group's compute-order source index and the sets as one CSR
        # (members, offsets) pair of compute-order indices.  The
        # node-named front-ends record (source node, tuple of
        # frozensets, None, ...) — multicast() with ids None for "one
        # group, everything to sets[0]" — and finalization converts
        # each distinct tuple once per round.  Grouping is deferred to
        # finalization like the unicast stream's, so the round's
        # replicated traffic is grouped with one pass per tag and
        # charged with one vectorized Steiner-flow call.
        self._multicasts: list[tuple] = []
        # the unicast stream, in registration order: (src, node list or
        # None for the canonical compute order, targets, counts or None,
        # payload, tag).  Two record shapes.  Per element (counts None):
        # targets index the node list once per element; exchange()
        # records carry their source node, exchange_column() records an
        # array, the compute-order index of each *element's* source.
        # Runs (counts given): the payload is laid end to end, run i
        # being counts[i] elements from compute node src[i] to compute
        # node targets[i]; exchange_runs() records hold three arrays,
        # send() records three ints.  Grouping is deferred to
        # finalization so the whole round is grouped with one pass, and
        # registration order is what keeps storage byte-identical to
        # one send per destination even when sends and exchanges mix on
        # one (dst, tag).
        self._unicast_stream: list[
            tuple[
                NodeId | np.ndarray | int,
                Sequence[NodeId] | None,
                np.ndarray | int,
                np.ndarray | int | None,
                np.ndarray,
                str,
            ]
        ] = []
        self._closed = False

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def _check_open(self) -> None:
        if self._closed:
            raise ProtocolError("round already finalized")

    def _check_source(self, src: NodeId) -> None:
        tree = self._cluster.tree
        if src not in tree.nodes:
            raise ProtocolError(f"unknown node {src!r}")
        if src not in tree.compute_nodes:
            raise ProtocolError(
                f"source {src!r} is a router; data can only reside at "
                "compute nodes, so no transfer can originate there"
            )

    def _check_destination(self, dst: NodeId) -> None:
        tree = self._cluster.tree
        if dst not in tree.nodes:
            raise ProtocolError(f"unknown node {dst!r}")
        if dst not in tree.compute_nodes:
            raise ProtocolError(
                f"destination {dst!r} is a router; only compute nodes "
                "can store data"
            )

    def _check_destinations(self, dsts: frozenset) -> None:
        """One subset test; the per-node walk only names the offender."""
        if not dsts <= self._cluster.tree.compute_nodes:
            for node in dsts:
                self._check_destination(node)

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

    def send(self, src: NodeId, dst: NodeId, values, *, tag: str) -> None:
        """Unicast ``values`` from ``src`` to ``dst`` under ``tag``.

        The one-run form of :meth:`exchange_runs`, with node names.
        """
        self._check_open()
        payload = self._as_payload(values)
        position = self._cluster.artifacts.compute_position
        source = position.get(src)
        if source is None:
            self._check_source(src)
        target = position.get(dst)
        if target is None:
            self._check_destination(dst)
        if len(payload) == 0:
            return
        self._unicast_stream.append(
            (source, None, target, len(payload), payload, str(tag))
        )

    def multicast(
        self, src: NodeId, dsts: Iterable[NodeId], values, *, tag: str
    ) -> None:
        """Send one copy of ``values`` toward every node in ``dsts``.

        Routing is deduplicated: each link on the Steiner tree of
        ``{src} | dsts`` carries the payload once, which is the routing
        the paper's upper-bound analyses assume for replicated tuples.
        """
        self._check_open()
        payload = self._as_payload(values)
        destination_set = frozenset(dsts)
        if not destination_set:
            raise ProtocolError("multicast needs at least one destination")
        self._check_source(src)
        self._check_destinations(destination_set)
        if len(payload) == 0:
            return
        self._multicasts.append(
            (src, (destination_set,), None, None, payload, str(tag))
        )

    def scatter(
        self,
        src: NodeId,
        assignments: Iterable[tuple[NodeId, Sequence[int] | np.ndarray]],
        *,
        tag: str,
    ) -> None:
        """Unicast a different payload to each destination (convenience)."""
        for dst, values in assignments:
            self.send(src, dst, values, tag=tag)

    def exchange(
        self,
        src: NodeId,
        targets,
        values,
        *,
        tag: str,
        nodes: Sequence[NodeId] | None = None,
    ) -> None:
        """Scatter ``values`` from ``src``, element ``i`` to node
        ``nodes[targets[i]]``.

        The batched equivalent of one :meth:`send` per distinct target:
        ``targets`` is a parallel integer array indexing into ``nodes``
        (default: the cluster's canonical compute order, the
        ``sorted(tree.compute_nodes, key=node_sort_key)`` list every
        hash-based protocol already uses).  Grouping happens with one
        stable argsort over the whole round instead of one boolean-mask
        scan per destination, and delivery/accounting are byte-identical
        to that send loop — within each destination group the original
        element order is preserved.
        """
        self._check_open()
        payload = self._as_payload(values)
        target_indices = self._as_indices(targets, "targets")
        if len(target_indices) != len(payload):
            raise ProtocolError(
                f"{len(payload)} values but {len(target_indices)} targets; "
                "exchange needs one target index per element"
            )
        # an explicit list is copied once, as a tuple: finalization
        # resolves each distinct list once per round, keyed by content
        node_list = None if nodes is None else tuple(nodes)
        candidates = (
            self._cluster.compute_order if node_list is None else node_list
        )
        self._check_source(src)
        self._check_index_span(
            target_indices, len(candidates), "target indices", "candidate nodes"
        )
        if len(payload) == 0:
            return
        if node_list is not None:
            # The canonical compute order needs no checking; an explicit
            # node list is validated on the destinations actually used.
            used = np.flatnonzero(
                np.bincount(target_indices, minlength=len(node_list))
            )
            for index in used.tolist():
                self._check_destination(node_list[index])
        self._unicast_stream.append(
            (src, node_list, target_indices, None, payload, str(tag))
        )

    def exchange_column(self, sources, targets, values, *, tag: str) -> None:
        """Scatter a whole relation: element ``i`` travels from compute
        node ``compute_order[sources[i]]`` to ``compute_order[targets[i]]``.

        The relation-at-a-time form of one :meth:`exchange` per run of
        equal ``sources`` (``sources`` is what :meth:`Cluster.column`
        returns as ``owners``): one registration and one stream record
        for the relation instead of one per node, delivered and charged
        byte-identically — per ``(dst, tag)`` the column's element order
        is preserved.  Both index arrays address the canonical compute
        order, so neither end of a transfer can be a router.
        """
        self._check_open()
        payload = self._as_payload(values)
        source_indices = self._as_indices(sources, "sources")
        target_indices = self._as_indices(targets, "targets")
        if not len(source_indices) == len(target_indices) == len(payload):
            raise ProtocolError(
                f"{len(payload)} values but {len(source_indices)} sources "
                f"and {len(target_indices)} targets; exchange_column needs "
                "one source and one target index per element"
            )
        count = len(self._cluster.compute_order)
        self._check_index_span(
            source_indices, count, "source indices", "compute nodes"
        )
        self._check_index_span(
            target_indices, count, "target indices", "compute nodes"
        )
        if len(payload) == 0:
            return
        self._unicast_stream.append(
            (source_indices, None, target_indices, None, payload, str(tag))
        )

    def exchange_runs(
        self, sources, targets, counts, values, *, tag: str
    ) -> None:
        """Scatter a payload that is already grouped: run ``i`` is the
        next ``counts[i]`` elements of ``values``, travelling from
        compute node ``compute_order[sources[i]]`` to
        ``compute_order[targets[i]]``.

        The form for traffic a protocol produces in stretches — a
        sorted fragment cut at the splitters, a light node's
        proportional scatter, a gather: one registration and one stream
        record for the round, one index triple per run instead of one
        target per element.  Equivalent to one :meth:`send` per run in
        order (an empty run sends nothing) and delivered and charged
        byte-identically to that loop.  The three index arrays address
        the canonical compute order, so neither end of a run can be a
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
                None,
                target_indices,
                run_lengths.astype(np.intp, copy=False),
                payload,
                str(tag),
            )
        )

    def exchange_multicast(
        self,
        src: NodeId,
        group_ids,
        destination_sets: Sequence[Iterable[NodeId]],
        values,
        *,
        tag: str,
    ) -> None:
        """Replicate ``values`` from ``src``, element ``i`` to every
        node in ``destination_sets[group_ids[i]]``.

        The batched equivalent of one :meth:`multicast` per distinct
        group id: ``group_ids`` is a parallel integer array indexing
        into ``destination_sets``, the per-round Steiner destination
        sets a replicating protocol computed (one per hashed owner in
        StarIntersect, one per subscriber subset in the components
        return leg).  Grouping is deferred to round finalization — one
        stable argsort per tag over the round's whole multicast stream
        — and the Steiner-tree edges of all groups are charged with a
        single vectorized :meth:`RoutingIndex.multicast_loads
        <repro.topology.steiner.RoutingIndex.multicast_loads>` call.
        Delivery and accounting are byte-identical to the equivalent
        per-group multicast loop; only destination sets actually
        referenced by a group id are validated.
        """
        self._check_open()
        self._check_source(src)
        payload, ids = self._as_grouped_payload(values, group_ids)
        sets = tuple(
            dsts if isinstance(dsts, frozenset) else frozenset(dsts)
            for dsts in destination_sets
        )
        self._check_index_span(ids, len(sets), "group ids", "destination sets")
        if len(payload) == 0:
            return
        used = np.flatnonzero(np.bincount(ids, minlength=len(sets)))
        for index in used.tolist():
            if not sets[index]:
                raise ProtocolError("multicast needs at least one destination")
            self._check_destinations(sets[index])
        self._multicasts.append((src, sets, None, ids, payload, str(tag)))

    def exchange_multicast_column(
        self, group_sources, group_ids, destinations, values, *, tag: str
    ) -> None:
        """Replicate a whole relation: element ``i`` goes from compute
        node ``compute_order[group_sources[group_ids[i]]]`` to every
        node of destination set ``group_ids[i]``.

        The relation-at-a-time form of :meth:`exchange_multicast`: a
        group is a (source, destination set) pair, so one registration
        carries every node's replicated elements (one group per distinct
        block-target row in TreeIntersect).  ``destinations`` holds the
        sets as compute-order indices, which cannot name a router: an
        integer ``(groups, k)`` matrix, one set per row, or a CSR
        ``(members, offsets)`` tuple, set ``g`` being
        ``members[offsets[g]:offsets[g + 1]]``.  They are *sets*: a
        member listed twice is delivered once.  Equivalent to one
        :meth:`multicast` per group id, ascending, and delivered and
        charged byte-identically to that loop; like there, a set a
        group id names needs at least one destination.
        """
        self._check_open()
        payload, ids = self._as_grouped_payload(values, group_ids)
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

    def _as_grouped_payload(self, values, group_ids):
        """A batched multicast's payload and its parallel group ids."""
        payload = self._as_payload(values)
        ids = self._as_indices(group_ids, "group ids")
        if len(ids) != len(payload):
            raise ProtocolError(
                f"{len(payload)} values but {len(ids)} group ids; "
                "a batched multicast needs one group id per element"
            )
        return payload, ids

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
        stable argsort per tag across every scatter of the round — and
        by routing unit for accounting: unicast ``(src, dst)`` pair
        counts feed the vectorized tree-flow charger
        (:meth:`~repro.topology.steiner.RoutingIndex.unicast_loads`),
        multicasts their Steiner sets; each kernel's ``(2, links)`` load
        array goes to the ledger whole (:meth:`CostLedger.add_link_loads`).
        Addition over element counts is commutative, so the per-edge
        loads equal a transfer-by-transfer path walk's exactly (the
        reference model in ``tests/reference_delivery.py``).

        When a recording tracer is installed, the finalizer splits its
        wall time into *group* (collection + argsort), *deliver*
        (storage appends), and *charge* (tree-flow accounting) phases
        and annotates the enclosing round span with them alongside the
        ledger-derived round attrs; with the default no-op tracer no
        clock is read.
        """
        cluster = self._cluster
        storage = cluster._storage
        tracer = get_tracer()
        registry = get_registry()
        phases = (
            {"group": 0.0, "deliver": 0.0, "charge": 0.0}
            if tracer.enabled
            else None
        )
        cluster.ledger.open_round()

        if self._unicast_stream:
            t0 = perf_counter() if phases is not None else 0.0
            routing, by_tag, pairs = self._collect_unicasts()
            # group: one pass per tag over the whole round; the argsort
            # is stable and parts are concatenated in registration
            # order, so per-(dst, tag) contents match a transfer-by-
            # transfer delivery exactly
            grouped = []
            for tag, parts in by_tag.items():
                all_dst, all_payload = map(_concatenated, zip(*parts))
                order, uniques, starts, ends = cached_group_slices(all_dst)
                grouped.append((tag, all_payload[order], uniques, starts, ends))
            if phases is not None:
                t1 = perf_counter()
                phases["group"] += t1 - t0
            # deliver: install the grouped slices into node storage
            for tag, sorted_payload, uniques, starts, ends in grouped:
                if registry.enabled:
                    # The process backend records this same total from
                    # its worker ranks; keeping the label set identical
                    # is what makes sim and process snapshots match.
                    registry.counter(
                        "repro_delivered_elements_total", tag=tag
                    ).inc(len(sorted_payload))
                # group_slices left the payload cut by destination: it
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
                phases["deliver"] += t2 - t1
            self._apply_pair_loads(routing, pairs)
            if phases is not None:
                phases["charge"] += perf_counter() - t2

        if self._multicasts:
            self._deliver_multicasts(phases)
        cluster.ledger.close_round()
        if registry.enabled:
            self._record_round_metrics(registry)
        if phases is not None:
            self._annotate_round(tracer, phases)

    def _collect_unicasts(
        self,
    ) -> tuple[object, dict[str, list[tuple[np.ndarray, np.ndarray]]], tuple]:
        """Resolve the unicast stream into columnar per-tag parts.

        Returns ``(routing_index, by_tag, pairs)``: per tag, the
        registration-ordered ``(dst_ids, payload)`` parts whose
        concatenation is the round's full scatter for that tag, plus
        the round's ``(src, dst, count)`` pair counts that feed the
        vectorized tree-flow charger (:func:`_pair_counts`).  Shared by
        the in-process bulk finalizer and the process-backend finalizer,
        which ships the same columns to its workers — byte-identity
        between the two substrates starts with collecting identical
        columns.
        """
        cluster = self._cluster
        routing = cluster.oracle.routing_index
        index_of = routing.index_of
        size = routing.num_nodes
        lookup_dtype = index_dtype(size)
        compute_lookup = routing.compute_idx.astype(lookup_dtype)
        # explicit node list -> routing-index lookup, resolved once per
        # distinct list (a protocol passes the same list from every node)
        lookups: dict[tuple | None, np.ndarray] = {None: compute_lookup}
        by_tag: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        # flat ``src * size + dst`` keys: one per element, or one per run
        # beside its count
        keys, run_keys, run_counts = [], [], []
        for src, node_list, targets, counts, payload, tag in (
            self._unicast_stream
        ):
            if counts is not None:  # runs: the non-empty ones are pair counts
                run_dst = compute_lookup[targets]
                dst_ids = np.repeat(run_dst, counts)
                if isinstance(counts, np.ndarray):  # exchange_runs()
                    live = counts > 0
                    src, run_dst, counts = src[live], run_dst[live], counts[live]
                run_keys.append(routing.compute_idx[src] * size + run_dst)
                run_counts.append(counts)
            else:
                lookup = lookups.get(node_list)
                if lookup is None:
                    lookup = lookups[node_list] = np.fromiter(
                        map(index_of.__getitem__, node_list),
                        lookup_dtype,
                        len(node_list),
                    )
                dst_ids = lookup[targets]
                if isinstance(src, np.ndarray):  # exchange_column()
                    keys.append(routing.compute_idx[src] * size + dst_ids)
                else:
                    keys.append(np.intp(index_of[src] * size) + dst_ids)
            by_tag.setdefault(tag, []).append((dst_ids, payload))
        return routing, by_tag, _pair_counts(keys, run_keys, run_counts, size)

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
        laid end to end, and how many each group has.  A named record's
        sets are converted once per distinct tuple.
        """
        index_of = routing.index_of
        lookup = routing.compute_idx
        named: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        by_tag: dict[str, list[tuple]] = {}
        for src, members, offsets, ids, payload, tag in self._multicasts:
            if offsets is None:
                sets = named.get(members)
                if sets is None:
                    # -1 for an unknown node: validation covered every
                    # set a group id names, and no other is gathered
                    sets = named[members] = (
                        np.fromiter(
                            (index_of.get(n, -1) for s in members for n in s),
                            np.intp,
                        ),
                        np.fromiter(map(len, members), np.intp, len(members)),
                    )
                table = ((index_of[src],) * len(members), *sets)
            else:
                table = (lookup[src], lookup[members], np.diff(offsets))
            by_tag.setdefault(tag, []).append((ids, payload, *table))
        return by_tag

    def _deliver_multicasts(self, phases: dict | None = None) -> None:
        """Deliver and charge the round's multicast stream in bulk.

        Group ids are lifted into a per-tag global id space (each
        record's local ids shifted by a running base, the shift deferred
        to :func:`concat_group_slices`), so one grouping pass per tag
        covers every replicated element of the round; global ids ascend
        in registration x local-id order, which keeps per-``(dst, tag)``
        byte order identical to the per-group multicast loop.  Each
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
        registry = get_registry()
        t0 = perf_counter() if phases is not None else 0.0
        by_tag = self._collect_multicasts(routing)
        if phases is not None:
            phases["group"] += perf_counter() - t0
        charges: list[tuple] = []
        for tag, records in by_tag.items():
            t1 = perf_counter() if phases is not None else 0.0
            ids, payloads, *table = zip(*records)
            bases = accumulate(map(len, table[2]), initial=0)
            order, uniques, starts, ends = concat_group_slices(
                [(i, len(p), base) for i, p, base in zip(ids, payloads, bases)]
            )
            all_payload, sources, members, fanouts = map(
                _concatenated, (payloads, *table)
            )
            sorted_payload = all_payload[order]
            if phases is not None:
                t2 = perf_counter()
                phases["group"] += t2 - t1
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
            if registry.enabled:
                registry.counter(
                    "repro_delivered_elements_total", tag=tag
                ).inc(int(lengths.sum()))
            if phases is not None:
                phases["deliver"] += perf_counter() - t2
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
            phases["charge"] += perf_counter() - t3

    def _annotate_round(self, tracer, phases: dict | None = None) -> None:
        """Attach ledger-derived attrs to the enclosing round span.

        Called after ``close_round`` by every finalizer (this one and
        the process substrate's), so the round span
        carries the same model-cost facts regardless of the execution
        path: the round's cost and the edge that sets it, its most-loaded
        edge, and the registered payload volume per tag.  ``phases`` adds
        the finalize-time split when the finalizer measured one.
        """
        ledger = self._cluster.ledger
        index = ledger.num_rounds - 1
        bottleneck = ledger.bottleneck(index)
        elements = self._elements_by_tag()
        bits = ledger.bits_per_element
        attrs = {
            "round": index,
            "round_cost": ledger.round_cost(index),
            "bottleneck_edge": bottleneck and "{}->{}".format(*bottleneck[0]),
            "max_edge_load": int(ledger.link_loads(index).max(initial=0)),
            "elements_by_tag": elements,
            "bytes_by_tag": {
                tag: count * bits // 8 for tag, count in elements.items()
            },
        }
        if phases is not None:
            attrs["t_group_s"] = phases["group"]
            attrs["t_deliver_s"] = phases["deliver"]
            attrs["t_charge_s"] = phases["charge"]
        tracer.annotate(**attrs)

    def _elements_by_tag(self) -> dict[str, int]:
        """Registered (pre-replication) element counts per tag."""
        elements: dict[str, int] = {}
        for *_, payload, tag in self._unicast_stream:
            elements[tag] = elements.get(tag, 0) + len(payload)
        for *_, payload, tag in self._multicasts:
            elements[tag] = elements.get(tag, 0) + len(payload)
        return elements

    def _record_round_metrics(self, registry) -> None:
        """Record the closed round on the installed metrics registry.

        Deliberately carries *no* backend label: every count here is
        derived from the registered streams and the ledger, which both
        substrates produce byte-identically, so a sim-run snapshot and
        a process-run snapshot of the same protocol are equal — the
        property the cross-process merge tests assert.
        """
        ledger = self._cluster.ledger
        index = ledger.num_rounds - 1
        registry.counter("repro_rounds_total").inc()
        registry.histogram("repro_round_cost").observe(
            ledger.round_cost(index)
        )
        registry.histogram("repro_max_edge_load").observe(
            int(ledger.link_loads(index).max(initial=0))
        )
        bits = ledger.bits_per_element
        for tag, count in self._elements_by_tag().items():
            registry.counter("repro_round_elements_total", tag=tag).inc(count)
            registry.counter("repro_round_bytes_total", tag=tag).inc(
                count * bits // 8
            )


class Cluster:
    """Tree topology + per-node storage + cost accounting."""

    def __init__(
        self,
        tree: TreeTopology,
        distribution: Distribution | None = None,
        *,
        bits_per_element: int = 64,
        artifacts: TopologyArtifacts | None = None,
    ) -> None:
        self._tree = tree
        # The expensive per-topology structures (routing index,
        # compute order) come from the artifact layer: prebuilt and
        # shared when a session or one-shot run scope installed an
        # ArtifactCache, private and fresh otherwise — the historical
        # per-cluster behavior.
        if artifacts is None:
            artifacts = resolve_artifacts(tree)
        elif artifacts.tree is not tree and artifacts.fingerprint != (
            topology_fingerprint(tree)
        ):
            # Prebuilt artifacts may come from a structurally identical
            # tree object (fingerprint keying); a structurally
            # *different* one would silently misroute every transfer.
            raise ProtocolError(
                f"artifacts were built for {artifacts.tree.name!r}, whose "
                f"structure differs from {tree.name!r}"
            )
        self._artifacts = artifacts
        self.oracle = artifacts.oracle
        self.ledger = CostLedger(tree, bits_per_element=bits_per_element)
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

        This is the node list hash-based protocols index into, so
        :meth:`RoundContext.exchange` uses it as the default target
        universe.
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

    def put(self, node: NodeId, tag: str, values) -> None:
        """Append ``values`` to ``node``'s storage under ``tag``.

        Zero-copy when ``values`` is already a 1-D ``int64`` array: the
        array is referenced, not copied (the storage layer serves
        read-only views, so the historical defensive copies are gone).
        """
        if node not in self._tree.compute_nodes:
            raise ProtocolError(
                f"{node!r} is not a compute node and cannot store data"
            )
        payload = np.asarray(values, dtype=np.int64)
        if len(payload) == 0:
            return
        self._storage.append(node, str(tag), payload)

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
        other case.  This is what the relation-at-a-time calls
        (:meth:`RoundContext.exchange_column`) and the segmented local
        kernels consume.
        """
        return self._storage.column(str(tag))

    def take(self, node: NodeId, tag: str) -> np.ndarray:
        """Remove and return ``node``'s data under ``tag`` (read-only)."""
        return self._storage.pop(node, str(tag))

    def local_size(self, node: NodeId, tag: str | None = None) -> int:
        """Element count at ``node`` for one tag or across all tags."""
        return self._storage.size(node, None if tag is None else str(tag))

    def tags_at(self, node: NodeId) -> frozenset:
        return self._storage.tags(node)

    def received_elements(self, node: NodeId) -> int:
        """Elements delivered to ``node`` from other nodes (MPC measure)."""
        index = self.oracle.routing_index.index_of.get(node)
        return 0 if index is None else int(self._received_elements[index])

    def _add_received(self, node: NodeId, count: int) -> None:
        """Record ``count`` remote arrivals at ``node``.

        The named front-end of the one vector the bulk deliveries add
        their arrivals to; the audit conservation check and the
        process-backend oracle both compare against it.
        """
        self._received_elements[self.oracle.routing_index.index_of[node]] += count

    # ------------------------------------------------------------------ #
    # rounds
    # ------------------------------------------------------------------ #

    def _make_round_context(self) -> RoundContext:
        """Factory hook: substrates override to supply their finalizer."""
        return RoundContext(self)

    @contextmanager
    def round(self) -> Iterator[RoundContext]:
        """Open a communication round.

        All sends registered inside the ``with`` block belong to the same
        round; deliveries and cost accounting happen when the block exits.
        """
        if self._round_open:
            raise ProtocolError("a round is already in progress")
        self._round_open = True
        context = self._make_round_context()
        auditor = get_auditor()
        before = auditor.before_round(self) if auditor.enabled else None
        # one span per round, covering both the protocol's local work
        # and finalization; finalize still runs only on clean exit
        with get_tracer().span(
            f"round {self.ledger.num_rounds}",
            category="round",
            backend=self.backend,
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

    # ------------------------------------------------------------------ #
    # substrate lifecycle
    # ------------------------------------------------------------------ #

    @property
    def backend(self) -> str:
        """Which execution substrate this cluster runs on."""
        return "sim"

    def close(self) -> None:
        """Release substrate resources (no-op for the simulator)."""


register_backend("sim", Cluster)
