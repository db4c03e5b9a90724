"""Tree network topologies with per-direction bandwidths.

This module implements the network model of Section 2 restricted to trees
(Section 2.1): a connected acyclic network whose links are full-duplex
channels, each direction with its own bandwidth.  A *symmetric* tree — the
setting of every theorem in the paper — has equal bandwidth in both
directions of every link; the asymmetric case is kept around because the
MPC model is captured by an asymmetric star (Section 2.2).

Terminology used throughout the package:

* **directed edge** ``(u, v)`` — the channel from ``u`` to ``v``;
* **undirected edge** — the canonical representative ``(a, b)`` of the
  pair ``{(a, b), (b, a)}``, used wherever the paper treats a link as a
  single object (edge partitions, lower bounds);
* **edge sides** — removing an undirected edge ``(a, b)`` from the tree
  splits the nodes into the side containing ``a`` and the side containing
  ``b``; the paper writes these as ``V-e`` and ``V+e``.  They are never
  listed: :meth:`TreeTopology.link_side_sums` aggregates over both sides
  of every link at once.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import deque
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import TopologyError

if TYPE_CHECKING:
    from repro.topology.steiner import RoutingIndex

NodeId = Hashable
DirectedEdge = tuple  # (u, v)
UndirectedEdge = tuple  # canonical (a, b)


def node_sort_key(node: NodeId) -> tuple:
    """A total order over arbitrary hashable node ids.

    Nodes of different types (e.g. ``1`` and ``"1"``) compare by type name
    first so the order is deterministic without requiring the ids
    themselves to be mutually comparable.
    """
    return (type(node).__name__, str(node), repr(node))


@lru_cache(maxsize=256)
def _sorting_positions(nodes: tuple, types: tuple) -> tuple | None:
    order = sorted(range(len(nodes)), key=lambda i: node_sort_key(nodes[i]))
    return None if order == list(range(len(nodes))) else tuple(order)


def canonical_order(nodes: tuple) -> tuple | None:
    """The positions that put ``nodes`` in :func:`node_sort_key` order.

    ``None`` when they already are.  Canonical order is a property of
    the node tuple, so it is worked out once per distinct tuple: the
    columnar containers keep their nodes in it, and a session placing
    relation after relation on one tree sorts that tree's nodes once.
    (The element types are part of the memo key because ``1 == True``
    while their sort keys differ.)
    """
    return _sorting_positions(nodes, tuple(map(type, nodes)))


#: Guards the lazy :attr:`TreeTopology.routing_index` build (module-level,
#: so trees stay picklable): one build per tree, ever.
_ROUTING_INDEX_LOCK = threading.Lock()


class TreeTopology:
    """A tree-shaped network with bandwidths and designated compute nodes.

    Parameters
    ----------
    directed_edges:
        Mapping from directed edge ``(u, v)`` to its bandwidth ``w > 0``
        (``math.inf`` allowed).  Both directions of every link must be
        present: tree links are full-duplex channels even when the two
        directions have different bandwidths.
    compute_nodes:
        The nodes allowed to store data and compute (``V_C``).  All other
        nodes are routers.
    name:
        Optional human-readable label used in reports.

    The constructor validates that the underlying undirected graph is a
    connected tree, that bandwidths are positive, and that compute nodes
    exist.  Instances are immutable; use :meth:`with_bandwidths` or
    :meth:`with_compute_nodes` to derive variants.
    """

    def __init__(
        self,
        directed_edges: Mapping[DirectedEdge, float],
        compute_nodes: Iterable[NodeId],
        *,
        name: str | None = None,
    ) -> None:
        self._bandwidth: dict[DirectedEdge, float] = {}
        adjacency: dict[NodeId, dict[NodeId, float]] = {}
        for (u, v), w in directed_edges.items():
            if u == v:
                raise TopologyError(f"self-loop at node {u!r}")
            if not isinstance(w, (int, float)) or math.isnan(w) or w <= 0:
                raise TopologyError(
                    f"bandwidth of edge ({u!r}, {v!r}) must be positive, got {w!r}"
                )
            if (u, v) in self._bandwidth:
                raise TopologyError(f"duplicate directed edge ({u!r}, {v!r})")
            self._bandwidth[(u, v)] = float(w)
            adjacency.setdefault(u, {})[v] = float(w)
            adjacency.setdefault(v, {})
        for (u, v) in self._bandwidth:
            if (v, u) not in self._bandwidth:
                raise TopologyError(
                    f"missing reverse direction for edge ({u!r}, {v!r}); "
                    "links are full-duplex channels"
                )
        self._symmetric = all(
            w == self._bandwidth[(v, u)] for (u, v), w in self._bandwidth.items()
        )

        self._compute_nodes = frozenset(compute_nodes)
        if not self._compute_nodes:
            raise TopologyError("at least one compute node is required")

        self._nodes = frozenset(adjacency) | self._compute_nodes
        unknown = self._compute_nodes - frozenset(adjacency) if adjacency else frozenset()
        if adjacency and unknown:
            raise TopologyError(
                f"compute nodes {sorted(map(str, unknown))} do not appear in any edge"
            )
        if not adjacency and len(self._nodes) > 1:
            raise TopologyError("multiple nodes but no edges: network is disconnected")

        self._adjacency = {u: dict(nbrs) for u, nbrs in adjacency.items()}
        for node in self._nodes:
            self._adjacency.setdefault(node, {})
        self.name = name or f"tree[{len(self._nodes)}n/{len(self._compute_nodes)}c]"

        self._validate_tree()
        self._root = min(self._nodes, key=node_sort_key)
        self._parent: dict[NodeId, NodeId | None] = {}
        self._build_rooting()
        keys = {n: node_sort_key(n) for n in self._nodes}
        self._links = sorted(
            ((u, v) for (u, v) in self._bandwidth if keys[u] <= keys[v]),
            key=lambda e: (keys[e[0]], keys[e[1]]),
        )
        self._routing_index: RoutingIndex | None = None
        self._canonical_walk: tuple | None = None  # worked out on first use

    def __reduce__(self):
        # A pickled tree is its definition: rooting, links and the lazy
        # index are rebuilt on the far side, so none of them crosses.
        return type(self), (self._bandwidth, self._compute_nodes), {"name": self.name}

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_undirected(
        cls,
        undirected_edges: Mapping[tuple, float],
        compute_nodes: Iterable[NodeId],
        *,
        name: str | None = None,
    ) -> "TreeTopology":
        """Build a *symmetric* tree from undirected edge bandwidths."""
        directed: dict[DirectedEdge, float] = {}
        for (u, v), w in undirected_edges.items():
            directed[(u, v)] = w
            directed[(v, u)] = w
        return cls(directed, compute_nodes, name=name)

    def with_bandwidths(
        self, overrides: Mapping[DirectedEdge, float]
    ) -> "TreeTopology":
        """Derive a topology with some directed-edge bandwidths replaced.

        Keys may be given in either direction of a link; ``(u, v)``
        overrides only the ``u -> v`` direction.
        """
        edges = dict(self._bandwidth)
        for (u, v), w in overrides.items():
            if (u, v) not in edges:
                raise TopologyError(f"unknown edge ({u!r}, {v!r})")
            edges[(u, v)] = w
        return TreeTopology(edges, self._compute_nodes, name=self.name)

    def with_compute_nodes(self, compute_nodes: Iterable[NodeId]) -> "TreeTopology":
        """Derive a topology with a different compute-node set."""
        return TreeTopology(dict(self._bandwidth), compute_nodes, name=self.name)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def _validate_tree(self) -> None:
        n_nodes = len(self._nodes)
        n_links = len(self._bandwidth) // 2
        if n_links != n_nodes - 1:
            raise TopologyError(
                f"{n_nodes} nodes need exactly {n_nodes - 1} links to form a "
                f"tree, got {n_links}"
            )
        if n_nodes == 0:
            raise TopologyError("empty topology")
        seen = {next(iter(self._nodes))}
        frontier = deque(seen)
        while frontier:
            node = frontier.popleft()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if len(seen) != n_nodes:
            raise TopologyError("network is disconnected")

    def _build_rooting(self) -> None:
        self._parent[self._root] = None
        frontier = deque([self._root])
        while frontier:
            node = frontier.popleft()
            for neighbor in sorted(self._adjacency[node], key=node_sort_key):
                if neighbor not in self._parent:
                    self._parent[neighbor] = node
                    frontier.append(neighbor)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> frozenset:
        """All network nodes (compute nodes and routers)."""
        return self._nodes

    @property
    def compute_nodes(self) -> frozenset:
        """The compute-node set ``V_C``."""
        return self._compute_nodes

    @property
    def routers(self) -> frozenset:
        """Nodes that can only route data."""
        return self._nodes - self._compute_nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_compute_nodes(self) -> int:
        return len(self._compute_nodes)

    def neighbors(self, node: NodeId) -> list:
        """Neighbors of ``node`` in deterministic order."""
        if node not in self._adjacency:
            raise TopologyError(f"unknown node {node!r}")
        return sorted(self._adjacency[node], key=node_sort_key)

    def degree(self, node: NodeId) -> int:
        if node not in self._adjacency:
            raise TopologyError(f"unknown node {node!r}")
        return len(self._adjacency[node])

    def leaves(self) -> frozenset:
        """Nodes of degree one (or the sole node of a single-node tree)."""
        if len(self._nodes) == 1:
            return self._nodes
        return frozenset(n for n in self._nodes if self.degree(n) == 1)

    def bandwidth(self, u: NodeId, v: NodeId) -> float:
        """Bandwidth of the directed channel ``u -> v``."""
        try:
            return self._bandwidth[(u, v)]
        except KeyError:
            raise TopologyError(f"no edge ({u!r}, {v!r})") from None

    @property
    def directed_edges(self) -> dict[DirectedEdge, float]:
        """Copy of the directed edge -> bandwidth mapping."""
        return dict(self._bandwidth)

    def canonical_edge(self, u: NodeId, v: NodeId) -> UndirectedEdge:
        """Canonical undirected representative of the link between u, v."""
        if (u, v) not in self._bandwidth:
            raise TopologyError(f"no edge ({u!r}, {v!r})")
        return (u, v) if node_sort_key(u) <= node_sort_key(v) else (v, u)

    def undirected_edges(self) -> list:
        """All links as canonical undirected edges, deterministic order."""
        return list(self._links)

    def undirected_bandwidth(self, edge: UndirectedEdge) -> float:
        """Bandwidth of a link in a symmetric tree (both directions equal)."""
        u, v = edge
        forward = self.bandwidth(u, v)
        backward = self.bandwidth(v, u)
        if forward != backward:
            raise TopologyError(
                f"link ({u!r}, {v!r}) is asymmetric "
                f"({forward} vs {backward}); no single undirected bandwidth"
            )
        return forward

    # ------------------------------------------------------------------ #
    # symmetry
    # ------------------------------------------------------------------ #

    @property
    def is_symmetric(self) -> bool:
        """True iff every link has equal bandwidth in both directions
        (decided at construction: the tree is immutable)."""
        return self._symmetric

    def require_symmetric(self, context: str = "this operation") -> None:
        """Raise :class:`TopologyError` unless the tree is symmetric."""
        if not self.is_symmetric:
            raise TopologyError(
                f"{context} requires a symmetric tree topology "
                f"(every link with equal bandwidth in both directions)"
            )

    def is_star(self) -> bool:
        """True iff some single node is an endpoint of every link."""
        if len(self._nodes) <= 2:
            return True
        candidates = None
        for (u, v) in self.undirected_edges():
            pair = {u, v}
            candidates = pair if candidates is None else candidates & pair
            if not candidates:
                return False
        return True

    def star_center(self) -> NodeId:
        """The hub of a star topology (raises if the tree is not a star)."""
        if not self.is_star():
            raise TopologyError(f"{self.name} is not a star topology")
        if len(self._nodes) == 1:
            return next(iter(self._nodes))
        if len(self._nodes) == 2:
            # Either node serves as center; prefer a router if present.
            routers = self.routers
            pool = routers if routers else self._nodes
            return min(pool, key=node_sort_key)
        candidates = set(self._nodes)
        for (u, v) in self.undirected_edges():
            candidates &= {u, v}
        return min(candidates, key=node_sort_key)

    # ------------------------------------------------------------------ #
    # rooting
    # ------------------------------------------------------------------ #

    def parent(self, node: NodeId) -> NodeId | None:
        """Parent of ``node`` under the canonical internal rooting."""
        if node not in self._parent:
            raise TopologyError(f"unknown node {node!r}")
        return self._parent[node]

    # ------------------------------------------------------------------ #
    # edge partitions (the V-e / V+e of the paper)
    # ------------------------------------------------------------------ #

    def link_side_sums(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per link, the sums of ``values`` over the compute nodes on each side.

        ``values`` holds one entry per compute node in
        ``routing_index.compute_nodes`` order; the two results align with
        :meth:`undirected_edges` (side of ``edge[0]``, side of ``edge[1]``).
        This is the quantity ``(sum_{v in V-e} N_v, sum_{v in V+e} N_v)``
        that every lower bound, planner estimate and G-dagger orientation
        is expressed through; with a 0/1 membership vector it counts a
        node set's members on each side (the partition checks).  Integer
        values sum exactly, float values in the fixed order of
        :meth:`RoutingIndex.subtree_sums`, the one per-link side kernel.
        """
        index = self.routing_index
        node_weights = np.zeros(index.num_nodes, dtype=values.dtype)
        node_weights[index.compute_idx] = values
        below, above = index.subtree_sums(node_weights)
        child = index.link_child
        first = np.where(index.link_child_first, below[child], above[child])
        second = np.where(index.link_child_first, above[child], below[child])
        return first, second

    def side_weights(
        self, weights: Mapping[NodeId, float]
    ) -> dict[UndirectedEdge, tuple[float, float]]:
        """:meth:`link_side_sums` of a node-keyed mapping, keyed by link."""
        values = np.array([weights.get(v, 0) for v in self.routing_index.compute_nodes])
        first, second = self.link_side_sums(values)
        return dict(zip(self._links, zip(first.tolist(), second.tolist())))

    def links_facing(self, node: NodeId) -> np.ndarray:
        """Per link, whether ``node`` lies on the side of ``edge[1]``."""
        if node not in self._nodes:
            raise TopologyError(f"unknown node {node!r}")
        index = self.routing_index
        entered = index.tin[index.index_of[node]]
        child = index.link_child
        below = (index.tin[child] <= entered) & (entered < index.tout[child])
        return below != index.link_child_first

    def undirected_bandwidths(self) -> np.ndarray:
        """:meth:`undirected_bandwidth` of every link, as one array."""
        index = self.routing_index
        if not self._symmetric:
            asymmetric = np.flatnonzero(index.link_forward != index.link_backward)
            self.undirected_bandwidth(self._links[asymmetric[0]])  # raises
        return index.link_forward

    @cached_property
    def fingerprint(self) -> str:
        """A stable content digest of the topology's *structure*,
        computed once per tree (the tree is immutable).

        Two trees with the same nodes (type + repr), the same directed
        edges with the same bandwidths, and the same compute-node set
        share a fingerprint — the ``name`` label is deliberately
        excluded, so differently-labelled builds of one network share
        topology artifacts and compiled plans.  Node identity uses
        :func:`node_sort_key` (type name, str, repr): distinct ids that
        stringify identically but differ in type or repr stay distinct,
        matching the canonical orders every artifact is built from.
        """
        digest = hashlib.blake2b(digest_size=16)
        for node in sorted(self._nodes, key=node_sort_key):
            digest.update(repr(node_sort_key(node)).encode())
            digest.update(b"\x01" if node in self._compute_nodes else b"\x00")
        for (u, v) in sorted(
            self._bandwidth, key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1]))
        ):
            digest.update(
                repr((node_sort_key(u), node_sort_key(v), self._bandwidth[(u, v)])).encode()
            )
        return digest.hexdigest()

    @property
    def routing_index(self) -> RoutingIndex:
        """The integer-indexed tree structure, built lazily and once; on
        the tree because bounds and estimates run outside any artifact scope."""
        if self._routing_index is None:
            from repro.topology.steiner import RoutingIndex

            with _ROUTING_INDEX_LOCK:
                if self._routing_index is None:
                    self._routing_index = RoutingIndex(self)
        return self._routing_index

    # ------------------------------------------------------------------ #
    # traversal orders (Section 5)
    # ------------------------------------------------------------------ #

    def left_to_right_compute_order(self, root: NodeId | None = None) -> list:
        """A valid left-to-right traversal order of the compute nodes.

        Section 5 defines a *valid ordering* as any left-to-right traversal
        of the tree after rooting it anywhere.  This method roots at
        ``root`` (default: the canonical internal root) and visits children
        in deterministic id order; the compute nodes are reported in the
        order first encountered, which makes every subtree's compute nodes
        a contiguous block of the result.  The default rooting's walk runs
        once per tree; every call returns a fresh list.
        """
        if root is None:
            if self._canonical_walk is None:
                self._canonical_walk = tuple(self.left_to_right_compute_order(self._root))
            return list(self._canonical_walk)
        if root not in self._nodes:
            raise TopologyError(f"unknown root {root!r}")
        order: list = []
        stack: list = [root]
        seen = {root}
        while stack:
            node = stack.pop()
            if node in self._compute_nodes:
                order.append(node)
            for neighbor in sorted(
                self._adjacency[node], key=node_sort_key, reverse=True
            ):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return order

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __repr__(self) -> str:
        sym = "symmetric" if self.is_symmetric else "asymmetric"
        return (
            f"TreeTopology({self.name!r}, nodes={len(self._nodes)}, "
            f"compute={len(self._compute_nodes)}, {sym})"
        )

    def iter_links(self) -> Iterator[tuple[UndirectedEdge, float, float]]:
        """Yield ``(canonical_edge, forward_bw, backward_bw)`` per link."""
        for (a, b) in self.undirected_edges():
            yield (a, b), self._bandwidth[(a, b)], self._bandwidth[(b, a)]
