"""Session-scoped topology artifacts: build once, serve many runs.

Every expensive structure a cluster derives from its topology — the
canonical compute order, beside the tree's own routing index — is a
pure function of the immutable
:class:`~repro.topology.tree.TreeTopology` (Hu, Koutris & Blanas
parameterize the whole cost model by the topology alone).  A one-shot
``run()`` rebuilding them per cluster is fine; a serving engine
answering thousands of queries on one fat tree is not.  This module
factors those structures into :class:`TopologyArtifacts`, cached in an
:class:`ArtifactCache` keyed by the stable structural digest
:attr:`~repro.topology.tree.TreeTopology.fingerprint` and carried in
the ``artifacts`` field of the run context (:mod:`repro.context`), next
to the tracer, registry and auditor:

* :class:`~repro.session.EngineSession` installs a long-lived cache, so
  every cluster built inside the session — by any protocol, any
  superstep, any plan stage — shares one set of artifacts per topology;
* the module-level engine installs a *one-shot* cache for each run when
  none is installed, torn down with the run — multi-cluster runs (graph
  supersteps, plan pipelines) stop rebuilding the routing index per
  cluster, but nothing leaks across independent ``run()`` calls.

Sharing is byte-identity-safe by construction: artifacts hold no
data-dependent state, so a warm cluster produces ledgers, storage, and
reports identical to a cold one — the property the serve benchmark and
the session property tests pin down.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.context import current, use
from repro.obs.tracer import get_tracer
from repro.topology.steiner import PathOracle
from repro.topology.tree import TreeTopology, node_sort_key


#: The most topologies an :class:`ArtifactCache` keeps artifacts for.
ARTIFACT_CACHE_ENTRIES = 16


class TopologyArtifacts:
    """The shared per-topology structures one or many clusters run on.

    Everything here is a deterministic pure function of ``tree``;
    construction is cheap (the heavy piece — the routing index —
    still builds lazily on first use, but *once per topology* instead
    of once per cluster).  Instances are safe to share across a
    caller's threads: the routing index is the tree's own (built
    once, under a lock) and nothing else changes after construction.
    """

    def __init__(self, tree: TreeTopology) -> None:
        self.tree = tree
        self.fingerprint = tree.fingerprint
        self.oracle = PathOracle(tree)
        self.compute_order: tuple = tuple(
            sorted(tree.compute_nodes, key=node_sort_key)
        )
        self.compute_position: dict = {
            node: index for index, node in enumerate(self.compute_order)
        }


class ArtifactCache:
    """A bounded, thread-safe LRU of :class:`TopologyArtifacts`.

    Keyed by :attr:`TreeTopology.fingerprint` and nothing else: the
    digest is memoized on the immutable tree, so a lookup of a tree seen
    before is one dict probe, and every hit refreshes the entry's
    recency; past :data:`ARTIFACT_CACHE_ENTRIES`, the least recently
    used entry is evicted.  Every lookup is a small ``cache`` span whose
    ``hits`` / ``misses`` attribute the metrics registry folds into
    ``repro_artifact_cache_hits_total`` / ``_misses_total``.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[str, TopologyArtifacts] = {}
        self.hits = 0
        self.misses = 0

    def get(self, tree: TreeTopology) -> TopologyArtifacts:
        """The artifacts for ``tree``, built on first sight."""
        with get_tracer().span(
            "artifact_cache.get", category="cache"
        ) as span, self._lock:
            # LRU touch: a hit is re-inserted at the back of the dict order
            artifacts = self._entries.pop(tree.fingerprint, None)
            if artifacts is not None:
                self._entries[artifacts.fingerprint] = artifacts
                self.hits += 1
                span.set(hits=1)
                return artifacts
            artifacts = TopologyArtifacts(tree)
            self._entries[artifacts.fingerprint] = artifacts
            while len(self._entries) > ARTIFACT_CACHE_ENTRIES:
                del self._entries[next(iter(self._entries))]
            self.misses += 1
            span.set(misses=1)
            return artifacts

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss counts and current size, for session summaries."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


@contextmanager
def use_artifacts(cache: ArtifactCache) -> Iterator[ArtifactCache]:
    """Share ``cache`` with every cluster built within the block."""
    with use(artifacts=cache):
        yield cache


def resolve_artifacts(tree: TreeTopology) -> TopologyArtifacts:
    """Artifacts for ``tree`` from the installed cache, else built fresh.

    The constructor-side hook: every :class:`~repro.sim.cluster.Cluster`
    calls this, so a cluster outside any cache scope gets a private,
    unshared build while sessions and one-shot run scopes share
    transparently.
    """
    cache = current().artifacts
    return TopologyArtifacts(tree) if cache is None else cache.get(tree)
