"""Vectorized tree-flow kernels: routing loads and per-link sides.

The cost model charges a link once for every element routed through it.
When a protocol multicasts the same element from a source to several
destinations (R-tuples replicated across partition blocks in Algorithm 2;
grid squares sharing a row range in Theorem 5), a sensible router forwards
*one* copy along the shared prefix and fans out later — which is exactly
what the paper's upper-bound analyses assume.  The set of links such a
multicast touches is the Steiner tree of {source} ∪ destinations, directed
away from the source — the union of the tree paths from the source to
each destination, which is the definition (walked link by link in the
Section-2 model, ``tests/model/``).
:class:`RoutingIndex` charges whole rounds of them with vectorized
tree-flow kernels, and its :meth:`~RoutingIndex.subtree_sums` is the one
kernel behind every per-link side aggregate (``V-e`` / ``V+e``).
"""

from __future__ import annotations

import numpy as np

from repro.topology.tree import TreeTopology
from repro.util.grouping import concat_ranges


class RoutingIndex:
    """Integer-indexed tree structure for vectorized bulk accounting.

    A round of a hashed shuffle produces tens of thousands of distinct
    ``(src, dst)`` unicast pairs; walking the tree path of each pair in
    Python is what used to dominate round finalization.  This index
    computes the per-edge loads of *all* pairs together:

    * LCAs by one range minimum over the DFS preorder: for ``tin[a] <
      tin[b]`` the LCA is the parent of the shallowest node entered in
      ``(tin[a], tin[b]]``, read from a sparse table built once — a
      fixed number of array gathers whatever the tree's depth;
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
        self.index_of: dict = {n: i for i, n in enumerate(tree.nodes)}
        size = len(tree.nodes)
        parent = np.full(size, -1, dtype=np.intp)
        for i, node in enumerate(tree.nodes):
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
        # node indices per depth level, deepest first, root level excluded
        self.levels_desc: list[np.ndarray] = [
            np.flatnonzero(depth == d) for d in range(int(depth.max(initial=0)), 0, -1)
        ]
        # ``preorder[tin[x]:tout[x]]`` is exactly the subtree of ``x``
        self.preorder = np.array(preorder, dtype=np.intp)
        self.tin = np.empty(size, dtype=np.int64)
        self.tin[self.preorder] = np.arange(size)
        self.tout = self.tin + self._push_up(np.ones(size, dtype=np.int64))
        # Sparse table for :meth:`_meet`, rows of ``size`` flattened: row
        # ``r`` holds at ``i`` the least ``tin`` of a parent of
        # ``preorder[i + 1 : i + 1 + 2**(r - 1)]``; row 0 is ``tin``
        # itself, the answer of an empty range.  A range of ``d`` nodes
        # reads row ``d.bit_length()`` at ``lo + _first[d]`` and at
        # ``hi + _last[d]``.
        spans = [np.arange(size), np.append(self.tin[parent[self.preorder[1:]]], size)]
        for r in range(2, (size - 1).bit_length() + 1):
            half, row = 1 << (r - 2), spans[-1].copy()
            np.minimum(spans[-1][:-half], spans[-1][half:], out=row[:-half])
            spans.append(row)
        self._spans = np.concatenate(spans)
        rows = np.frexp(np.arange(size))[1].astype(np.int64)
        self._first = rows * size
        self._last = self._first - ((1 << rows) >> 1)
        self._tin_bits = (size - 1).bit_length()
        self.compute_idx = np.array(
            [self.index_of[n] for n in tree.compute_nodes], dtype=np.intp
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
        return len(self.parent)

    def lca(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized lowest common ancestors of index arrays ``a``, ``b``."""
        tin_a = self.tin[np.asarray(a, dtype=np.intp)]
        tin_b = self.tin[np.asarray(b, dtype=np.intp)]
        return self._meet(np.minimum(tin_a, tin_b), np.maximum(tin_a, tin_b))

    def _meet(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The LCAs of the nodes entered at ``lo <= hi``: the least parent
        ``tin`` over ``preorder(lo, hi]`` (every node there lies below the
        LCA and one child of it does), or ``lo`` for an empty range."""
        length = hi - lo
        first, last = self._first[length], self._last[length]
        first += lo
        last += hi
        first, last = self._spans[first], self._spans[last]
        return self.preorder[np.minimum(first, last, out=first)]

    def _push_up(self, values: np.ndarray, ufunc: np.ufunc = np.add) -> np.ndarray:
        """Add (or ``ufunc``: min, max) every node's value into all its
        ancestors, in place (a trailing batch axis rides along)."""
        for level in self.levels_desc:
            ufunc.at(values, self.parent[level], values[level])
        return values

    def links_facing(self, nodes: np.ndarray) -> np.ndarray:
        """Per node index of ``nodes`` (any shape), per link whether the
        node lies on the side of ``edge[1]``: a trailing links axis."""
        entered = self.tin[nodes][..., None]
        child = self.link_child
        below = (self.tin[child] <= entered) & (entered < self.tout[child])
        return below != self.link_child_first

    def _steiner_paths(
        self, terminals: np.ndarray, groups: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The virtual-tree decomposition of one Steiner tree per group.

        ``groups`` are dense non-negative ids and group ``g`` begins at
        ``starts[g]`` once sorted.  Returns the terminals sorted by
        ``(group, preorder)`` — one sort of ``tin`` with the group in the
        bits above it — and each one's LCA with its cyclic predecessor
        inside the group.  The upward paths terminal -> that LCA are
        edge-disjoint and cover every Steiner edge of the group exactly
        once; a repeated terminal adds an empty path.  Sorted neighbours
        need no ``min``/``max``: ``(prev, next)``, and ``(first, last)``
        for the cyclic pair, are already ``lo <= hi``.
        """
        bits = self._tin_bits
        hi = np.sort(groups << bits | self.tin[terminals])
        hi &= (1 << bits) - 1
        terminals = self.preorder[hi]
        lo = np.empty_like(hi)
        lo[1:] = hi[:-1]
        lo[starts] = hi[starts]
        hi[starts] = hi[np.r_[starts[1:], len(hi)] - 1]
        return terminals, self._meet(lo, hi)

    def subtree_sums(
        self, values: np.ndarray, ufunc: np.ufunc = np.add, identity=0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per node ``x``: ``ufunc`` over ``values`` inside ``x``'s subtree,
        and outside it — the two sides of the link ``x -- parent[x]``.

        The one per-link side kernel, for sums (``np.add``, behind
        :meth:`TreeTopology.link_side_sums`) and for extremes
        (``np.minimum`` / ``np.maximum`` with their identity, the
        Section-5 order check).  Inside by the push-up; outside by
        ``ufunc`` over the preorder before ``tin`` and from ``tout`` on,
        each accumulated from an end holding ``identity``.  Sums are
        additions only, in that fixed order, never ``total - subtree``:
        with float values a side that holds nothing is exactly zero.

        ``values`` is one value per node, or a stack of them with the
        batch on a trailing axis (``(nodes, batch)``): every column runs
        the same operations in the same order, so column ``j`` of a
        stacked call equals the call on column ``j`` alone, bit for bit.
        """
        in_preorder = values[self.preorder]
        end = np.full((1, *values.shape[1:]), identity, dtype=values.dtype)
        before = ufunc.accumulate(np.concatenate([end, in_preorder]))
        after = ufunc.accumulate(np.concatenate([end, in_preorder[::-1]]))[::-1]
        return (
            self._push_up(values.copy(), ufunc),
            ufunc(before[self.tin], after[self.tout]),
        )

    def steiner_counts(self, node_idx: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Per node ``x``: the distinct keys held on both sides of the
        link ``x -- parent[x]``, ``node_idx[i]`` holding ``keys[i]``.

        A key sits on both sides of a link exactly when the Steiner tree
        of its holders contains the link: ``+1`` at every holder, ``-1``
        at the top of its :meth:`_steiner_paths` path, pushed up.
        """
        if len(keys) == 0:
            return np.zeros(self.num_nodes, dtype=np.int64)
        order = np.argsort(keys)
        ranked = keys[order]
        fresh = np.empty(len(keys), dtype=bool)
        fresh[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
        holders, meet = self._steiner_paths(
            np.asarray(node_idx)[order], np.cumsum(fresh), np.flatnonzero(fresh)
        )
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
        size = self.num_nodes
        # one bincount per end and one at the LCAs, whose charge both
        # directions take off; counts are exact in float64 below 2**53
        at_meet = np.bincount(self.lca(src, dst), counts, size)
        up = np.bincount(src, counts, size) - at_meet
        down = np.bincount(dst, counts, size) - at_meet
        return self._push_loads(up.astype(np.int64), down.astype(np.int64))

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
        the source) is charged ``counts[g]`` once — the union of the
        source-to-destination paths; returned in the slot layout of
        :meth:`unicast_loads`.

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
        # every source, then every destination slice: the sort inside
        # :meth:`_steiner_paths` brings each group's terminals together
        ids = np.arange(num_groups, dtype=np.intp)
        flat = np.concatenate([src, terminals[concat_ranges(starts, lens)]])
        t_sorted, meet = self._steiner_paths(
            flat, np.concatenate([ids, np.repeat(ids, lens)]), out_start
        )
        roots = meet[out_start]  # lca(t_1, t_k) = the group's Steiner root
        per_terminal = np.repeat(counts, k)
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
    """One topology's routing structures, as the artifact layer shares
    them (:mod:`repro.topology.artifacts`); holds no state of its own.

    Rounds charge through :attr:`routing_index`; the definition its
    kernels are tested against is the Section-2 model's path walk
    (``tests/model/paths.py``).
    """

    def __init__(self, tree: TreeTopology) -> None:
        self._tree = tree

    @property
    def routing_index(self) -> RoutingIndex:
        """The tree's integer-indexed routing structure."""
        return self._tree.routing_index
