"""The simulated ledger as byte-identical oracle for the process backend.

The simulator (:class:`~repro.sim.cluster.Cluster`) is the repo's
ground truth for the Section 2 cost model: its accounting is pinned by
differential property tests against the transfer-by-transfer reference
model in ``tests/reference_delivery.py``.  The process substrate must
therefore not be *approximately* right — every run must produce
exactly the storage bytes, received counts, and per-edge ledger loads
the simulator produces.  This module enforces that contract two ways:

* :class:`LedgerOracle` — attached to a
  :class:`~repro.parallel.backend.ParallelCluster` built with
  ``oracle=True``.  It maintains a *shadow* simulator cluster:
  ``load``, ``put`` and ``take`` are mirrored as they happen, and after
  every parallel round the recorded transfer streams are replayed
  through the simulator's own finalizer on the shadow, then the round's
  per-edge loads and cumulative received counts are compared exactly.
  :meth:`LedgerOracle.verify` additionally compares the full per-node,
  per-tag storage bytes and the ledger totals.
* :func:`assert_clusters_identical` — compares two independently run
  clusters (the scale benchmark runs the same prepared round on both
  substrates and calls this).

All comparisons are exact (integer loads, ``array_equal`` on int64
payloads) — "close enough" is not a concept here.
"""

from __future__ import annotations

import numpy as np

from repro.context import use
from repro.errors import ProtocolError
from repro.obs.metrics import NullRegistry
from repro.obs.tracer import NullTracer
from repro.sim.cluster import Cluster
from repro.topology.tree import TreeTopology, node_sort_key


class OracleMismatch(ProtocolError):
    """The process backend diverged from the simulated ledger."""


class LedgerOracle:
    """Shadow simulator replaying a parallel cluster's rounds."""

    def __init__(
        self, tree: TreeTopology, *, bits_per_element: int = 64
    ) -> None:
        self.shadow = Cluster(tree, bits_per_element=bits_per_element)

    def replay_round(
        self, cluster: Cluster, unicast_stream: list, multicasts: list
    ) -> None:
        """Replay one round's streams on the shadow; compare the round.

        The streams are the already-validated records the parallel
        round context collected; injecting them into a shadow
        :class:`RoundContext` runs the simulator's bulk finalizer on
        byte-for-byte the same inputs the workers got.
        """
        # The shadow is a verification artifact, not part of the run:
        # replay under a no-op tracer and registry so a traced or
        # metered process-backend round doesn't also emit a duplicate
        # simulator round span or double-count round metrics.  The
        # *auditor* is deliberately left installed — the replay runs
        # through the shadow's own ``round()``, so auditing a
        # process-backend run checks the simulator's finalization of
        # the very same streams for free.
        with use(tracer=NullTracer(), registry=NullRegistry()):
            with self.shadow.round() as context:
                context._unicast_stream.extend(unicast_stream)
                context._multicasts.extend(multicasts)
        index = self.shadow.ledger.num_rounds - 1
        expected = self.shadow.ledger.round_loads(index)
        actual = cluster.ledger.round_loads(index)
        if expected != actual:
            diverging = {
                edge: (expected.get(edge), actual.get(edge))
                for edge in set(expected) | set(actual)
                if expected.get(edge) != actual.get(edge)
            }
            raise OracleMismatch(
                f"round {index}: process-backend edge loads diverged from "
                f"the simulated ledger on {len(diverging)} edge(s): "
                f"{_preview(diverging)}"
            )
        for node in self.shadow.compute_order:
            expected_count = self.shadow.received_elements(node)
            actual_count = cluster.received_elements(node)
            if expected_count != actual_count:
                raise OracleMismatch(
                    f"round {index}: node {node!r} received "
                    f"{actual_count} elements on the process backend, "
                    f"{expected_count} on the simulator"
                )

    def verify(self, cluster: Cluster) -> None:
        """Full A/B check: storage bytes, received counts, ledger totals."""
        assert_clusters_identical(
            cluster, self.shadow, a_name="process", b_name="oracle"
        )


def _preview(mapping: dict, limit: int = 3) -> str:
    items = sorted(mapping.items(), key=lambda kv: repr(kv[0]))[:limit]
    suffix = "" if len(mapping) <= limit else ", ..."
    return "{" + ", ".join(f"{k!r}: {v!r}" for k, v in items) + suffix + "}"


def assert_clusters_identical(
    a: Cluster,
    b: Cluster,
    *,
    a_name: str = "A",
    b_name: str = "B",
) -> None:
    """Exact equality of two clusters' observable state.

    Checks, in order: round count, per-round per-edge loads, total
    cost, per-node received counts, per-node tag sets, and per-node
    per-tag storage bytes (``local()`` views).  Raises
    :class:`OracleMismatch` naming the first divergence.

    Runs under a muted tracer and metrics registry: reading every
    column may lazily compact it, and a verification pass must not
    perturb the backend-agnostic storage counters it is there to
    safeguard.
    """
    with use(tracer=NullTracer(), registry=NullRegistry()):
        _assert_clusters_identical(a, b, a_name=a_name, b_name=b_name)


def _assert_clusters_identical(
    a: Cluster,
    b: Cluster,
    *,
    a_name: str,
    b_name: str,
) -> None:
    if a.ledger.num_rounds != b.ledger.num_rounds:
        raise OracleMismatch(
            f"{a_name} ran {a.ledger.num_rounds} rounds, "
            f"{b_name} {b.ledger.num_rounds}"
        )
    for index in range(a.ledger.num_rounds):
        loads_a = a.ledger.round_loads(index)
        loads_b = b.ledger.round_loads(index)
        if loads_a != loads_b:
            diverging = {
                edge: (loads_a.get(edge), loads_b.get(edge))
                for edge in set(loads_a) | set(loads_b)
                if loads_a.get(edge) != loads_b.get(edge)
            }
            raise OracleMismatch(
                f"round {index} loads differ between {a_name} and "
                f"{b_name} on {len(diverging)} edge(s): "
                f"{_preview(diverging)}"
            )
    if a.ledger.total_cost() != b.ledger.total_cost():
        raise OracleMismatch(
            f"total cost differs: {a_name}={a.ledger.total_cost()!r} "
            f"{b_name}={b.ledger.total_cost()!r}"
        )
    nodes = sorted(
        set(a.tree.compute_nodes) | set(b.tree.compute_nodes),
        key=node_sort_key,
    )
    for node in nodes:
        if a.received_elements(node) != b.received_elements(node):
            raise OracleMismatch(
                f"node {node!r} received {a.received_elements(node)} "
                f"({a_name}) vs {b.received_elements(node)} ({b_name})"
            )
        tags_a, tags_b = a.tags_at(node), b.tags_at(node)
        if tags_a != tags_b:
            raise OracleMismatch(
                f"node {node!r} holds tags {sorted(map(str, tags_a))} "
                f"({a_name}) vs {sorted(map(str, tags_b))} ({b_name})"
            )
        for tag in sorted(tags_a):
            payload_a = a.local(node, tag)
            payload_b = b.local(node, tag)
            if not np.array_equal(payload_a, payload_b):
                raise OracleMismatch(
                    f"storage bytes differ at node {node!r} tag {tag!r}: "
                    f"{len(payload_a)} vs {len(payload_b)} elements "
                    f"({a_name} vs {b_name})"
                )
