"""The process backend: protocol rounds executed across OS processes.

:class:`ParallelCluster` is a second execution substrate behind the
:class:`~repro.sim.cluster.Cluster` surface.  The simulator models a
round's parallelism purely in the :class:`~repro.sim.ledger.CostLedger`;
here the round's communication work — grouping the scatter, delivering
per-destination payloads, producing the received fragments — actually
executes on worker processes, one *rank* per contiguous block of
simulated compute nodes, with the columnar round payloads carried in
``multiprocessing.shared_memory`` arrays and each round closed by a
barrier over all ranks.

How a round runs
----------------

1.  The protocol registers transfers on the master exactly as on the
    simulator (:meth:`RoundContext.exchange` and friends); nothing in
    protocol code knows which substrate it is on.
2.  At finalization the master resolves the unicast stream into the
    same per-tag ``(dst_ids, payload)`` columns the simulator builds
    (literally the same code,
    :meth:`RoundContext._collect_unicasts`), copies them into shared
    segments, and broadcasts one round job per rank.
3.  Every rank selects the elements destined to *its* nodes
    (``rank_of[dst] == rank`` — selection preserves registration
    order), groups them with one stable argsort, and writes the
    grouped payload into its own shared output block.  The master
    blocks on the barrier until all ranks reply.
4.  The master maps each rank's ``(dst, tag, start, end)`` reply into
    zero-copy storage views, charges the ledger through the same
    vectorized tree-flow accountant as the simulator, and recycles the
    input segments for the next round.

Because stable selection + stable grouping commute with the
simulator's stable grouping of the whole round, per-``(dst, tag)``
storage bytes, received counts, and per-edge ledger loads are
*byte-identical* to the simulated substrate — which
:class:`~repro.parallel.oracle.LedgerOracle` asserts run-for-run when
``oracle=True``.

The multicast stream (Steiner replication) is finalized master-side
through the inherited :meth:`_deliver_multicasts`, which reads the
stream's index-array records as registered: delivery there is slice
views plus one gather per tag (nothing per group to parallelize), and
running it master-side keeps the chunk structure — and therefore the
compaction counts — identical to the simulator's by construction.

Failure surface: a worker crash or a round-deadline overrun raises
:class:`~repro.errors.ProtocolError` annotated with the guilty rank
and the round index, and the pool tears down its shared segments — no
``/dev/shm`` blocks survive a failed run.
"""

from __future__ import annotations

import weakref
from time import perf_counter

import numpy as np

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.obs.metrics import (
    MetricsRegistry,
    NullRegistry,
    get_registry,
    use_registry,
)
from repro.obs.tracer import get_tracer
from repro.parallel import pool as pool_module
from repro.parallel.pool import WorkerPool, annotate_error, get_pool
from repro.parallel.shmem import SharedArrayPool, attach_array
from repro.sim.cluster import Cluster, RoundContext, register_backend
from repro.topology.tree import TreeTopology
from repro.util.grouping import cached_group_slices

#: Dispatch target of the per-rank round kernel.
ROUND_KERNEL = "repro.parallel.backend:_round_kernel"


def _round_kernel(payload: dict) -> dict:
    """Worker side of one round: select, group, and emit owned payloads.

    ``payload`` carries the rank-ownership lookup, the round's per-tag
    shared columns, and this rank's output block.  Selection by
    ``flatnonzero`` keeps registration order; ``group_slices`` is the
    same stable grouping primitive the simulator uses, so each
    ``(dst, tag)`` chunk is byte-identical to the simulator's.

    When the master traces the run (``payload["trace"]``), the kernel
    times its own work with ``perf_counter`` — CLOCK_MONOTONIC, shared
    machine-wide with the master on the platforms the pool supports —
    and ships the interval back in the reply so the master can merge a
    rank-qualified span at its true timeline position.

    When the master collects metrics (``payload["metrics"]``), the
    kernel accumulates its rank-local delivery counts into a private
    registry and ships the snapshot back in the reply — the same
    over-the-barrier route the rank spans take — for the master to
    merge.  Every element is owned by exactly one rank, so the merged
    per-tag totals equal the simulator's master-side counts.
    """
    trace = payload.get("trace", False)
    t_start = perf_counter() if trace else 0.0
    rank = pool_module.WORKER_RANK
    rank_of = payload["rank_of"]
    local_registry = MetricsRegistry() if payload.get("metrics") else None
    out = attach_array(payload["out"])
    cursor = 0
    slices: list[list[tuple[int, int, int]]] = []
    for entry in payload["tags"]:
        dst = attach_array(entry["dst"])
        values = attach_array(entry["payload"])
        mine = np.flatnonzero(rank_of[dst] == rank)
        tag_slices: list[tuple[int, int, int]] = []
        if mine.size:
            if local_registry is not None:
                local_registry.counter(
                    "repro_delivered_elements_total", tag=entry["tag"]
                ).inc(int(mine.size))
            order, uniques, starts, ends = cached_group_slices(dst[mine])
            out[cursor : cursor + mine.size] = values[mine][order]
            for dst_id, start, end in zip(
                uniques.tolist(), starts.tolist(), ends.tolist()
            ):
                tag_slices.append(
                    (int(dst_id), cursor + int(start), cursor + int(end))
                )
            cursor += int(mine.size)
        slices.append(tag_slices)
    result = {"slices": slices, "elements": cursor}
    if trace:
        result["span"] = (t_start, perf_counter())
    if local_registry is not None:
        result["metrics"] = local_registry.snapshot()
    return result


def _release_segments(shm: SharedArrayPool, segments: list) -> None:
    """Finalizer: hand a dead cluster's retained blocks back to the pool."""
    while segments:
        shm.release(segments.pop())


class ParallelRoundContext(RoundContext):
    """A round whose delivery work runs on the cluster's worker ranks."""

    def _finalize_bulk(self) -> None:
        cluster: ParallelCluster = self._cluster  # type: ignore[assignment]
        tracer = get_tracer()
        phases = (
            {"group": 0.0, "deliver": 0.0, "charge": 0.0}
            if tracer.enabled
            else None
        )
        cluster.ledger.open_round()
        round_index = cluster.ledger.num_rounds - 1
        try:
            if self._unicast_stream:
                self._deliver_unicasts_parallel(round_index, phases)
            if self._multicasts:
                # Master-side Steiner replication (see module docstring).
                self._deliver_multicasts(phases)
        except ProtocolError as error:
            annotate_error(
                error,
                f"process backend: round {round_index} "
                f"on {cluster.tree.name!r} failed",
            )
            raise
        cluster.ledger.close_round()
        registry = get_registry()
        if registry.enabled:
            self._record_round_metrics(registry)
        if phases is not None:
            self._annotate_round(tracer, phases)
        if cluster._oracle is not None:
            cluster._oracle.replay_round(
                cluster, self._unicast_stream, self._multicasts
            )

    def _deliver_unicasts_parallel(
        self, round_index: int, phases: dict | None = None
    ) -> None:
        """Ship the round's columns to the ranks; map replies to storage."""
        cluster: ParallelCluster = self._cluster  # type: ignore[assignment]
        # The pool lock spans the lease + broadcast + install sequence:
        # clusters on other threads sharing this pool must not interleave
        # their rounds with ours (reentrant, so broadcast re-acquires).
        with cluster.pool.lock:
            self._deliver_unicasts_locked(round_index, phases)

    def _deliver_unicasts_locked(
        self, round_index: int, phases: dict | None = None
    ) -> None:
        cluster: ParallelCluster = self._cluster  # type: ignore[assignment]
        storage = cluster._storage
        shm = cluster.pool.shm
        num_workers = cluster.num_workers
        tracer = get_tracer()
        registry = get_registry()
        t0 = perf_counter() if phases is not None else 0.0
        routing, by_tag, pairs = self._collect_unicasts()
        node_names = routing.nodes
        rank_of = cluster._rank_lookup(routing)
        round_segments = []  # input columns, recycled after the barrier
        tag_entries = []
        per_rank = np.zeros(num_workers, dtype=np.int64)
        for tag, parts in by_tag.items():
            if len(parts) == 1:
                all_dst, all_payload = parts[0]
            else:
                all_dst = np.concatenate([p[0] for p in parts])
                all_payload = np.concatenate([p[1] for p in parts])
            count = len(all_dst)
            dst_segment, dst_view = shm.lease_array(all_dst.dtype, count)
            dst_view[:] = all_dst
            payload_segment, payload_view = shm.lease_array(np.int64, count)
            payload_view[:] = all_payload
            round_segments += [dst_segment, payload_segment]
            per_rank += np.bincount(
                rank_of[all_dst], minlength=num_workers
            )
            tag_entries.append(
                {
                    "tag": tag,
                    "dst": dst_segment.spec(all_dst.dtype, count),
                    "payload": payload_segment.spec(np.int64, count),
                }
            )
        out_blocks = []
        payloads = []
        for rank in range(num_workers):
            segment, view = shm.lease_array(np.int64, int(per_rank[rank]))
            out_blocks.append((segment, view))
            payloads.append(
                {
                    "round": round_index,
                    "rank_of": rank_of,
                    "tags": tag_entries,
                    "out": segment.spec(np.int64, int(per_rank[rank])),
                    "trace": phases is not None,
                    "metrics": registry.enabled,
                }
            )
        if phases is not None:
            t1 = perf_counter()
            phases["group"] += t1 - t0
        results = cluster.pool.broadcast(
            ROUND_KERNEL,
            payloads,
            timeout=cluster.round_timeout,
            label=f"round {round_index}",
        )
        for rank, result in enumerate(results):
            segment, view = out_blocks[rank]
            cluster._retained_segments.append(segment)
            if "metrics" in result:
                # fold the rank's delivery deltas into the master
                # registry; integer counter addition commutes, so the
                # merge order across ranks is immaterial
                registry.merge_snapshot(result["metrics"])
            if phases is not None and "span" in result:
                # merge the rank's kernel interval into the master trace
                # under a rank-qualified name on its own track
                start, end = result["span"]
                tracer.add_event(
                    f"rank{rank}/round {round_index}",
                    start,
                    end,
                    track=f"rank {rank}",
                    category="worker-round",
                    attrs={
                        "rank": rank,
                        "round": round_index,
                        "elements": result["elements"],
                    },
                )
            for entry, tag_slices in zip(tag_entries, result["slices"]):
                tag = entry["tag"]
                for dst_id, start, end in tag_slices:
                    # a read-only view into the retained shared block:
                    # delivery stays zero-copy and the stored fragment
                    # cannot be rewritten through the shm mapping
                    chunk = view[start:end]
                    chunk.setflags(write=False)
                    storage.append(node_names[dst_id], tag, chunk)
        for segment in round_segments:
            shm.release(segment)
        if phases is not None:
            t2 = perf_counter()
            phases["deliver"] += t2 - t1
        self._apply_pair_loads(routing, pairs)
        if phases is not None:
            phases["charge"] += perf_counter() - t2


class ParallelCluster(Cluster):
    """Cluster whose rounds execute across shared-memory worker ranks.

    Parameters beyond the :class:`Cluster` ones:

    num_workers:
        Rank count; compute nodes are assigned to ranks in contiguous
        blocks of the canonical compute order.
    pool:
        An explicit :class:`~repro.parallel.pool.WorkerPool` to run on
        (the scale benchmark reuses one pool across repeats); by
        default a process-wide shared pool for ``num_workers`` is used.
    round_timeout:
        Per-round barrier deadline in seconds; overrunning it kills
        the pool and raises :class:`ProtocolError` with rank + round.
    oracle:
        When true, every round is replayed on a shadow simulator
        cluster and checked for byte-identical ledger loads and
        received counts (full storage via :meth:`verify_oracle`).
    """

    def __init__(
        self,
        tree: TreeTopology,
        distribution: Distribution | None = None,
        *,
        bits_per_element: int = 64,
        num_workers: int = 2,
        start_method: str | None = None,
        pool: WorkerPool | None = None,
        round_timeout: float | None = None,
        oracle: bool = False,
        seed: int = 0,
        artifacts=None,
    ) -> None:
        if pool is None:
            pool = get_pool(num_workers, start_method=start_method, seed=seed)
        self.pool = pool
        self.num_workers = pool.num_workers
        self.round_timeout = round_timeout
        self._retained_segments: list = []
        self._finalizer = weakref.finalize(
            self, _release_segments, pool.shm, self._retained_segments
        )
        # The oracle must exist before super().__init__ loads the
        # distribution: ``load`` goes through ``put``, which mirrors.
        from repro.parallel.oracle import LedgerOracle

        self._oracle = (
            LedgerOracle(tree, bits_per_element=bits_per_element)
            if oracle
            else None
        )
        super().__init__(
            tree,
            distribution,
            bits_per_element=bits_per_element,
            artifacts=artifacts,
        )

    # ------------------------------------------------------------------ #
    # substrate surface
    # ------------------------------------------------------------------ #

    @property
    def backend(self) -> str:
        return "process"

    def rank_of(self, node) -> int:
        """The worker rank that owns ``node``'s deliveries."""
        computes = self.compute_order
        try:
            index = computes.index(node)
        except ValueError:
            raise ProtocolError(f"{node!r} is not a compute node") from None
        return (index * self.num_workers) // len(computes)

    def _rank_lookup(self, routing) -> np.ndarray:
        """Routing-index -> owning rank (``-1`` for routers).

        Cached on the shared topology artifacts keyed by the rank
        count, so a session's clusters stop rebuilding it per run.
        """
        return self._artifacts.rank_lookup(routing, self.num_workers)

    def _make_round_context(self) -> RoundContext:
        return ParallelRoundContext(self)

    # ------------------------------------------------------------------ #
    # storage mirroring (oracle)
    # ------------------------------------------------------------------ #

    def put(self, node, tag: str, values) -> None:
        super().put(node, tag, values)
        if self._oracle is not None:
            with use_registry(NullRegistry()):
                self._oracle.shadow.put(node, tag, values)

    def take(self, node, tag: str) -> np.ndarray:
        values = super().take(node, tag)
        if self._oracle is not None:
            # the shadow's read may compact its column; mute the
            # registry so the mirror doesn't double-count storage
            # metrics the real cluster already recorded
            with use_registry(NullRegistry()):
                self._oracle.shadow.take(node, tag)
        return values

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def verify_oracle(self) -> None:
        """Assert full byte-identity against the shadow simulator run."""
        if self._oracle is None:
            raise ProtocolError(
                "cluster was built without oracle=True; nothing to verify"
            )
        self._oracle.verify(self)

    def close(self) -> None:
        """Return retained shared blocks; storage views become invalid."""
        self._storage.clear()
        _release_segments(self.pool.shm, self._retained_segments)


register_backend("process", ParallelCluster)
