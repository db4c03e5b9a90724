"""Graphs on the 64-bit element substrate.

An edge ``(src, dst)`` packs into a single ``int64`` as
``src << VERTEX_BITS | dst``, so one edge costs exactly one element in
the ledger — the same per-tuple accounting every relational operator in
the package uses.  :data:`VERTEX_BITS` is 20, which caps vertex ids at
``2^20`` and is chosen so a *wedge* ``(a, b, c)`` — the intermediate
relation of the triangle-count plan — still fits the planner's 62-bit
row limit (``3 x 20 = 60`` bits) and a ``(vertex, label)`` message fits
the keyed-tuple encoding (``20 + 20`` bits).

A :class:`PlacedGraph` is the graph analogue of
:class:`~repro.data.distribution.Distribution` for relations: it wraps
a distribution whose fragments hold packed edges as relation ``"E"``
(:data:`DEFAULT_EDGE_TAG`), records the vertex count, and exposes the
edge/degree accessors the workloads and verifiers need.  Edges are
stored once per undirected edge in canonical ``src < dst`` orientation;
protocols that need both directions (label propagation) expand
fragments locally, which is free computation in the model.
"""

from __future__ import annotations

import numpy as np

from repro.data.distribution import Distribution
from repro.errors import DistributionError
from repro.topology.tree import NodeId, TreeTopology
from repro.util.grouping import sorted_unique

VERTEX_BITS = 20
MAX_VERTICES = 1 << VERTEX_BITS
_DST_MASK = np.int64(MAX_VERTICES - 1)

DEFAULT_EDGE_TAG = "E"


def encode_edges(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Pack aligned endpoint arrays into one ``int64`` per edge."""
    src_array = np.asarray(src, dtype=np.int64)
    dst_array = np.asarray(dst, dtype=np.int64)
    if src_array.shape != dst_array.shape:
        raise DistributionError(
            f"{len(src_array)} sources but {len(dst_array)} destinations"
        )
    for name, array in (("src", src_array), ("dst", dst_array)):
        if len(array) and (array.min() < 0 or array.max() >= MAX_VERTICES):
            raise DistributionError(
                f"{name} vertex ids must be in [0, 2^{VERTEX_BITS})"
            )
    return (src_array << np.int64(VERTEX_BITS)) | dst_array


def decode_edges(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack packed edges back into ``(src, dst)`` arrays."""
    packed = np.asarray(values, dtype=np.int64)
    return packed >> np.int64(VERTEX_BITS), packed & _DST_MASK


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Deduplicated ``(m, 2)`` edges with ``src < dst``; rejects loops."""
    array = np.asarray(edges, dtype=np.int64)
    if array.ndim != 2 or (len(array) and array.shape[1] != 2):
        raise DistributionError(
            f"edges must be an (m, 2) array, got shape {array.shape}"
        )
    if len(array) == 0:
        return array.reshape(0, 2)
    if np.any(array[:, 0] == array[:, 1]):
        raise DistributionError("self-loops are not supported")
    lo = np.minimum(array[:, 0], array[:, 1])
    hi = np.maximum(array[:, 0], array[:, 1])
    return np.unique(
        np.stack([lo, hi], axis=1), axis=0
    )


class PlacedGraph:
    """One graph's edges, fragment by compute node, over a distribution.

    Parameters
    ----------
    distribution:
        A :class:`Distribution` whose ``"E"`` fragments hold packed
        edges (see :func:`encode_edges`).
    num_vertices:
        Size of the vertex id space; defaults to ``max endpoint + 1``.
        Isolated vertices (ids with no incident edge) are allowed but
        carry no data, so connectivity and degrees are reported for
        non-isolated vertices only.
    """

    def __init__(
        self,
        distribution: Distribution,
        *,
        num_vertices: int | None = None,
    ) -> None:
        self._distribution = distribution
        endpoints_max = -1
        for node in distribution.node_order:
            fragment = distribution.fragment(node, DEFAULT_EDGE_TAG)
            if not len(fragment):
                continue
            src, dst = decode_edges(fragment)
            if src.min() < 0 or dst.min() < 0:
                raise DistributionError("negative vertex id in placed edges")
            endpoints_max = max(endpoints_max, int(src.max()), int(dst.max()))
        if num_vertices is None:
            num_vertices = endpoints_max + 1
        if endpoints_max >= num_vertices:
            raise DistributionError(
                f"edge endpoint {endpoints_max} outside the declared vertex "
                f"space [0, {num_vertices})"
            )
        if num_vertices > MAX_VERTICES:
            raise DistributionError(
                f"num_vertices {num_vertices} exceeds 2^{VERTEX_BITS}"
            )
        self._num_vertices = int(num_vertices)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        tree: TreeTopology,
        edges: np.ndarray,
        *,
        num_vertices: int | None = None,
        policy: str = "uniform",
        seed: int = 0,
    ) -> "PlacedGraph":
        """Place ``(m, 2)`` edges on ``tree`` under a named policy.

        Edges are canonicalized (``src < dst``, duplicates and loops
        removed), packed, shuffled by ``seed`` and dealt to compute
        nodes under the same placement policies relations use
        (``uniform`` / ``zipf`` / ``single-heavy`` / ``proportional``).
        """
        # Imported here: data.generators lazily imports this module for
        # random_graph_distribution, so a top-level import would cycle.
        from repro.data.generators import distribute, placement_sizes
        from repro.util.seeding import derive_seed

        canonical = canonical_edges(edges)
        packed = encode_edges(canonical[:, 0], canonical[:, 1])
        nodes = tree.left_to_right_compute_order()
        sizes = placement_sizes(tree, len(packed), policy, nodes)
        distribution = distribute(
            packed,
            sizes,
            tag=DEFAULT_EDGE_TAG,
            shuffle_seed=derive_seed(seed, "place-graph"),
        )
        return cls(distribution, num_vertices=num_vertices)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def distribution(self) -> Distribution:
        """The underlying per-node placement (feed this to the engine)."""
        return self._distribution

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._distribution.total(DEFAULT_EDGE_TAG)

    def fragment_edges(self, node: NodeId) -> np.ndarray:
        """The ``(m_v, 2)`` edges initially placed at ``node``."""
        fragment = self._distribution.fragment(node, DEFAULT_EDGE_TAG)
        src, dst = decode_edges(fragment)
        return np.stack([src, dst], axis=1) if len(src) else np.empty(
            (0, 2), np.int64
        )

    def edges(self) -> np.ndarray:
        """All edges concatenated in deterministic node order."""
        parts = [
            self.fragment_edges(node)
            for node in self._distribution.node_order
        ]
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty((0, 2), np.int64)
        return np.concatenate(parts)

    def vertices(self) -> np.ndarray:
        """Sorted non-isolated vertex ids (endpoints of some edge)."""
        edges = self.edges()
        if not len(edges):
            return np.empty(0, np.int64)
        return sorted_unique(edges)

    def degrees(self) -> np.ndarray:
        """Undirected degree per vertex id (length ``num_vertices``)."""
        edges = self.edges()
        counts = np.zeros(self._num_vertices, dtype=np.int64)
        if len(edges):
            counts += np.bincount(
                edges.ravel(), minlength=self._num_vertices
            )
        return counts

    def describe(self) -> str:
        lines = [
            f"PlacedGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"tag={DEFAULT_EDGE_TAG!r})"
        ]
        for node in self._distribution.node_order:
            lines.append(
                f"  {node}: {self._distribution.size(node, DEFAULT_EDGE_TAG)} edges"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PlacedGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, nodes={len(self._distribution.node_order)})"
        )
