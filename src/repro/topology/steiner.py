"""Path and Steiner-edge oracle for routing on trees.

The cost model charges a link once for every element routed through it.
When a protocol multicasts the same element from a source to several
destinations (R-tuples replicated across partition blocks in Algorithm 2;
grid squares sharing a row range in Theorem 5), a sensible router forwards
*one* copy along the shared prefix and fans out later — which is exactly
what the paper's upper-bound analyses assume.  The set of links such a
multicast touches is the Steiner tree of {source} ∪ destinations, directed
away from the source; :class:`PathOracle` computes those edge sets one
query at a time (the definition), :class:`RoutingIndex` charges whole
rounds of them with vectorized tree-flow kernels.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from repro.topology.tree import DirectedEdge, TreeTopology, node_sort_key


class RoutingIndex:
    """Integer-indexed tree structure for vectorized bulk accounting.

    A round of a hashed shuffle produces tens of thousands of distinct
    ``(src, dst)`` unicast pairs; walking the tree path of each pair in
    Python is what used to dominate round finalization.  This index
    computes the per-edge loads of *all* pairs together:

    * LCAs by lifting both endpoint arrays up the canonical rooting,
      one vectorized step per tree level;
    * per-edge loads by the classic tree-difference trick — charge
      ``+count`` at the endpoint, ``-count`` at the LCA, and push
      partial sums up the tree level by level; the accumulated value at
      node ``x`` is then exactly the load on the directed edge between
      ``x`` and its parent (upward loads from sources, downward loads
      to destinations).

    The resulting per-edge totals are sums of the same integers the
    per-pair walk adds up, so they are exactly equal.

    The same push-up yields the per-link aggregates behind every lower
    bound and estimate — :meth:`subtree_sums`, :meth:`steiner_counts` —
    reported per node ``x`` for the link ``x -- parent[x]``;
    :attr:`link_child` maps that onto ``tree.undirected_edges()`` order.
    """

    def __init__(self, tree: TreeTopology) -> None:
        self.nodes: list = sorted(tree.nodes, key=node_sort_key)
        self.index_of: dict = {n: i for i, n in enumerate(self.nodes)}
        size = len(self.nodes)
        parent = np.full(size, -1, dtype=np.intp)
        for i, node in enumerate(self.nodes):
            p = tree.parent(node)
            if p is not None:
                parent[i] = self.index_of[p]
        # DFS preorder: terminals of a multicast sorted by entry time
        # ``tin`` admit the edge-disjoint Steiner decomposition that
        # :meth:`multicast_loads` charges (the virtual-tree ordering).
        children: list[list[int]] = [[] for _ in range(size)]
        for i in range(size):
            if parent[i] >= 0:
                children[parent[i]].append(i)
        preorder: list[int] = []
        depth = np.zeros(size, dtype=np.int64)
        stack = [i for i in range(size) if parent[i] < 0][::-1]
        while stack:
            x = stack.pop()
            preorder.append(x)
            if parent[x] >= 0:
                depth[x] = depth[parent[x]] + 1
            stack.extend(reversed(children[x]))
        self.parent = parent
        self.depth = depth
        self.max_depth = int(depth.max()) if size else 0
        # node indices per depth level, deepest first, root level excluded
        self.levels_desc: list[np.ndarray] = [
            np.flatnonzero(depth == d)
            for d in range(self.max_depth, 0, -1)
        ]
        # ``preorder[tin[x]:tout[x]]`` is exactly the subtree of ``x``
        self.preorder = np.array(preorder, dtype=np.intp)
        self.tin = np.empty(size, dtype=np.int64)
        self.tin[self.preorder] = np.arange(size)
        self.tout = self.tin + self._push_up(np.ones(size, dtype=np.int64))
        self.compute_nodes = tuple(n for n in self.nodes if n in tree.compute_nodes)
        self.compute_idx = np.array(
            [self.index_of[n] for n in self.compute_nodes], dtype=np.intp
        )
        # per link of ``tree.undirected_edges()``: whether ``edge[0]`` is
        # the endpoint farther from the root, and that endpoint's index
        ends = np.array(
            [(self.index_of[a], self.index_of[b]) for a, b in tree.undirected_edges()],
            dtype=np.intp,
        ).reshape(-1, 2)
        self.link_child_first = parent[ends[:, 0]] == ends[:, 1]
        self.link_child = np.where(self.link_child_first, ends[:, 0], ends[:, 1])
        # Directed edges as the slots of a ``(2, links)`` array — row 0:
        # ``edge[0] -> edge[1]`` of every link, row 1: the way back — the
        # layout of a round's loads from the push-up to the ledger's
        # report: the slots' names row after row, and their widths.
        links = list(tree.iter_links())
        self.slot_edges: list = [e for e, _, _ in links] + [e[::-1] for e, _, _ in links]
        self.link_bandwidths = np.array(
            [[w for _, w, _ in links], [w for _, _, w in links]], dtype=np.float64
        ).reshape(2, len(links))
        self.link_forward, self.link_backward = self.link_bandwidths

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def lca(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized lowest common ancestors of index arrays ``a``, ``b``."""
        a = np.array(a, dtype=np.intp)
        b = np.array(b, dtype=np.intp)
        parent, depth = self.parent, self.depth
        deeper = depth[a] > depth[b]
        while deeper.any():
            a[deeper] = parent[a[deeper]]
            deeper = depth[a] > depth[b]
        deeper = depth[b] > depth[a]
        while deeper.any():
            b[deeper] = parent[b[deeper]]
            deeper = depth[b] > depth[a]
        differ = a != b
        while differ.any():
            a[differ] = parent[a[differ]]
            b[differ] = parent[b[differ]]
            differ = a != b
        return a

    def _push_up(self, values: np.ndarray, ufunc: np.ufunc = np.add) -> np.ndarray:
        """Add (or ``ufunc``: min, max) every node's value into all its
        ancestors, in place."""
        for level in self.levels_desc:
            ufunc.at(values, self.parent[level], values[level])
        return values

    def _steiner_paths(
        self, terminals: np.ndarray, groups: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The virtual-tree decomposition of one Steiner tree per group.

        Returns the terminals sorted by ``(group, preorder)`` and each
        one's LCA with its cyclic predecessor inside the group.  The
        upward paths terminal -> that LCA are edge-disjoint and cover
        every Steiner edge of the group exactly once; a repeated
        terminal adds an empty path.
        """
        order = np.lexsort((self.tin[terminals], groups))
        terminals, groups = terminals[order], groups[order]
        starts = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
        prev = np.empty_like(terminals)
        prev[1:] = terminals[:-1]
        prev[starts] = terminals[np.r_[starts[1:], len(terminals)] - 1]
        return terminals, self.lca(terminals, prev)

    def subtree_sums(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per node ``x``: the weight inside ``x``'s subtree, and outside it.

        Additions only, in a fixed order (push-up inside; preorder prefix
        plus suffix outside), never ``total - subtree``: with float
        weights a side that holds nothing is exactly zero.
        """
        in_preorder = weights[self.preorder]
        zero = np.zeros(1, dtype=weights.dtype)
        before = np.concatenate([zero, np.cumsum(in_preorder)])
        after = np.concatenate([np.cumsum(in_preorder[::-1])[::-1], zero])
        return self._push_up(weights.copy()), before[self.tin] + after[self.tout]

    def steiner_counts(self, node_idx: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Per node ``x``: the distinct keys held on both sides of the
        link ``x -- parent[x]``, ``node_idx[i]`` holding ``keys[i]``.

        A key sits on both sides of a link exactly when the Steiner tree
        of its holders contains the link: ``+1`` at every holder, ``-1``
        at the top of its :meth:`_steiner_paths` path, pushed up.
        """
        if len(keys) == 0:
            return np.zeros(self.num_nodes, dtype=np.int64)
        holders, meet = self._steiner_paths(node_idx, keys)
        size = self.num_nodes
        return self._push_up(
            np.bincount(holders, minlength=size) - np.bincount(meet, minlength=size)
        )

    def unicast_loads(
        self, src: np.ndarray, dst: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Per-directed-edge element loads of a batch of unicasts.

        ``src``/``dst`` are node indices (per :attr:`index_of`) and
        ``counts`` the element count per pair; self-pairs contribute
        nothing, exactly like an empty path.  Returns the ``int64 (2,
        links)`` load of every slot (see :attr:`slot_edges`).
        """
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        counts = np.asarray(counts, dtype=np.int64)
        meet = self.lca(src, dst)
        up = np.zeros(self.num_nodes, dtype=np.int64)
        down = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(up, src, counts)
        np.subtract.at(up, meet, counts)
        np.add.at(down, dst, counts)
        np.subtract.at(down, meet, counts)
        return self._push_loads(up, down)

    def _push_loads(self, up: np.ndarray, down: np.ndarray) -> np.ndarray:
        """Prefix-sum tree-difference arrays into per-slot loads.

        ``up[x]`` / ``down[x]`` hold path-difference charges; after
        pushing partial sums up the levels, the value at ``x`` is the
        load on the edge between ``x`` and its parent — upward
        (``x -> parent``) for ``up``, downward for ``down``.  A link's
        ``edge[0] -> edge[1]`` slot is the upward one exactly when
        ``edge[0]`` is the child.
        """
        up = self._push_up(up)[self.link_child]
        down = self._push_up(down)[self.link_child]
        child_first = self.link_child_first
        return np.stack(
            [np.where(child_first, up, down), np.where(child_first, down, up)]
        )

    def multicast_loads(
        self,
        src: np.ndarray,
        terminals: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Per-directed-edge loads of a batch of Steiner multicasts.

        Group ``g`` multicasts ``counts[g]`` elements from node index
        ``src[g]`` to the destination indices
        ``terminals[starts[g]:ends[g]]``; each directed edge of the
        Steiner tree of ``{src} | destinations`` (directed away from
        the source) is charged ``counts[g]`` once, exactly like
        :meth:`PathOracle.steiner_edges` accounting; returned in the
        slot layout of :meth:`unicast_loads`.

        The vectorization rests on the edge-disjoint upward paths of
        :meth:`_steiner_paths` (the cyclic first pair yields the
        Steiner root ``lca(t_1, t_k)``).  Those paths feed the same
        tree-difference accumulators as :meth:`unicast_loads`; edges on
        the source's path to the Steiner root carry the payload upward,
        every other Steiner edge carries it downward.  Duplicate
        terminals contribute empty paths, so destination sets need no
        deduplication against the source.
        """
        src = np.asarray(src, dtype=np.intp)
        terminals = np.asarray(terminals, dtype=np.intp)
        starts = np.asarray(starts, dtype=np.intp)
        ends = np.asarray(ends, dtype=np.intp)
        counts = np.asarray(counts, dtype=np.int64)
        num_groups = len(src)
        if num_groups == 0:
            return np.zeros(self.link_bandwidths.shape, dtype=np.int64)
        lens = ends - starts
        k = lens + 1  # terminals per group, the source included
        out_end = np.cumsum(k)
        out_start = out_end - k
        total = int(out_end[-1])
        group_of = np.repeat(np.arange(num_groups, dtype=np.intp), k)
        # flat terminal array: each group's source followed by its
        # destination slice, gathered without a per-group Python loop
        flat = np.empty(total, dtype=np.intp)
        flat[out_start] = src
        pos = np.arange(total, dtype=np.intp)
        dst_slots = pos != out_start[group_of]
        gather = pos - out_start[group_of] - 1 + starts[group_of]
        flat[dst_slots] = terminals[gather[dst_slots]]
        t_sorted, meet = self._steiner_paths(flat, group_of)
        roots = meet[out_start]  # lca(t_1, t_k) = the group's Steiner root
        per_terminal = counts[group_of]
        up = np.zeros(self.num_nodes, dtype=np.int64)
        down = np.zeros(self.num_nodes, dtype=np.int64)
        # upward: the source's path to the Steiner root
        np.add.at(up, src, counts)
        np.subtract.at(up, roots, counts)
        # downward: the full disjoint decomposition minus that path
        np.add.at(down, t_sorted, per_terminal)
        np.subtract.at(down, meet, per_terminal)
        np.subtract.at(down, src, counts)
        np.add.at(down, roots, counts)
        return self._push_loads(up, down)


class PathOracle:
    """Path / Steiner-edge queries against one topology.

    The plain, uncached definitions the vectorized kernels are tested
    against; production rounds charge through :attr:`routing_index`.
    Instances are shared across clusters through the artifact layer
    (:mod:`repro.topology.artifacts`) and hold no state of their own.
    """

    def __init__(self, tree: TreeTopology) -> None:
        self._tree = tree

    @property
    def routing_index(self) -> RoutingIndex:
        """The tree's integer-indexed routing structure."""
        return self._tree.routing_index

    @property
    def tree(self) -> TreeTopology:
        return self._tree

    def path_edges(self, src: Hashable, dst: Hashable) -> tuple[DirectedEdge, ...]:
        """Directed edges on the unique path ``src -> dst`` (may be empty)."""
        return self._tree.path_edges(src, dst)

    def steiner_edges(
        self, src: Hashable, dsts: Iterable[Hashable]
    ) -> tuple[DirectedEdge, ...]:
        """Directed edges a deduplicated multicast from ``src`` traverses.

        This is the union of the directed paths from ``src`` to each
        destination; because all paths share the source, the union is the
        Steiner tree of the terminal set directed away from ``src``, and
        each link appears at most once.
        """
        edges: dict[DirectedEdge, None] = {}
        for dst in sorted(frozenset(dsts), key=lambda n: str(n)):
            for edge in self._tree.path_edges(src, dst):
                edges.setdefault(edge, None)
        return tuple(edges)
