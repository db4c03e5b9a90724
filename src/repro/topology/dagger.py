"""The oriented tree G-dagger of Section 4.1 (Lemma 4) and its covers.

Given a symmetric tree ``G`` and per-compute-node data sizes ``N_v``, the
paper orients every link toward its *heavier* side: edge ``(u, v)`` points
``u -> v`` when the total data on ``u``'s side is at most the total on
``v``'s side.  Lemma 4 shows the result has out-degree at most one
everywhere and a unique sink, the *root* ``r``; data "flows downhill"
toward the root in the cartesian-product algorithms.

A *cover* of G-dagger is a node set such that every leaf has an ancestor
in it (a node counts as its own ancestor); Theorem 4 turns every minimal
cover ``U != {r}`` into a lower bound ``N / sqrt(sum_{u in U} w_u^2)``.
:func:`optimal_cover` computes the strongest such bound with the same
bottom-up recursion the paper uses for ``w~`` in Algorithm 5 / Lemma 8(3).

Tie-breaking: when both sides of a link hold exactly half the data, both
orientations satisfy the paper's rule, and a careless per-edge choice can
give some node two out-edges.  We orient every tied link toward the side
containing a fixed *pivot* node (the maximum node id).  Since the far
sides of two out-edges of a node are disjoint, two strict orientations
would need more than ``N`` data, a strict+tied pair exactly more than
``N``, and two tied orientations would put the pivot on two disjoint
sides — all impossible, so Lemma 4's properties hold unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Hashable, Iterator, Mapping

from repro.errors import TopologyError
from repro.topology.tree import NodeId, TreeTopology, node_sort_key


@dataclass(frozen=True)
class Dagger:
    """The oriented tree: parent pointers toward the root.

    Attributes
    ----------
    tree:
        The underlying symmetric tree.
    root:
        The unique node with out-degree zero.
    parent:
        ``parent[v]`` is the head of ``v``'s unique out-edge (absent for
        the root).
    out_bandwidth:
        ``out_bandwidth[v]`` is the bandwidth ``w_v`` of ``v``'s out-edge
        (the paper's ``w(v, p_v)``).
    """

    tree: TreeTopology
    root: NodeId
    parent: dict
    out_bandwidth: dict
    _children: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        children: dict = {}
        for node in sorted(self.parent, key=node_sort_key):
            children.setdefault(self.parent[node], []).append(node)
        object.__setattr__(self, "_children", children)

    def children(self, node: NodeId) -> list:
        """Nodes whose out-edge points at ``node``, in deterministic order."""
        return list(self._children.get(node, ()))

    def dagger_leaves(self) -> list:
        """Nodes with in-degree zero in the orientation."""
        parents = set(self.parent.values())
        return sorted(
            (v for v in self.tree.nodes if v not in parents),
            key=node_sort_key,
        )

    @property
    def root_is_compute(self) -> bool:
        """True iff the sink of the orientation is a compute node.

        When the root is a compute node, simply routing all data to the
        root is already optimal for the cartesian product (Section 4.1),
        so the packing machinery is bypassed.
        """
        return self.root in self.tree.compute_nodes

    def subtree_nodes(self, node: NodeId) -> frozenset:
        """All nodes in the subtree of ``node`` (nodes oriented toward it)."""
        members = {node}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for child in self.children(current):
                members.add(child)
                frontier.append(child)
        return frozenset(members)


def build_dagger(
    tree: TreeTopology, node_weights: Mapping[NodeId, float]
) -> Dagger:
    """Orient ``tree`` toward heavier sides per Section 4.1.

    ``node_weights`` are the per-compute-node data sizes ``N_v``; missing
    compute nodes count as zero, non-compute keys are rejected.
    """
    tree.require_symmetric("building G-dagger")
    for node in node_weights:
        if node not in tree.compute_nodes:
            raise TopologyError(
                f"weight given for {node!r}, which is not a compute node"
            )
    if len(tree.nodes) == 1:
        only = next(iter(tree.nodes))
        return Dagger(tree=tree, root=only, parent={}, out_bandwidth={})

    pivot = max(tree.nodes, key=node_sort_key)
    parent: dict = {}
    out_bandwidth: dict = {}
    for edge, (weight_a, weight_b) in tree.side_weights(node_weights).items():
        a, b = edge
        if weight_a < weight_b:
            tail, head = a, b
        elif weight_b < weight_a:
            tail, head = b, a
        else:
            # Tie: orient toward the side holding the pivot node.
            a_nodes, _ = tree.edge_sides(edge)
            tail, head = (b, a) if pivot in a_nodes else (a, b)
        if tail in parent:  # pragma: no cover - excluded by the tie rule
            raise TopologyError(
                f"node {tail!r} received two out-edges; orientation bug"
            )
        parent[tail] = head
        out_bandwidth[tail] = tree.undirected_bandwidth(edge)

    roots = [v for v in tree.nodes if v not in parent]
    if len(roots) != 1:  # pragma: no cover - guaranteed by Lemma 4
        raise TopologyError(f"expected a unique G-dagger root, got {roots!r}")
    return Dagger(
        tree=tree, root=roots[0], parent=parent, out_bandwidth=out_bandwidth
    )


def optimal_cover(dagger: Dagger) -> tuple[frozenset, float]:
    """The minimal cover minimizing ``sum w_u^2`` and that minimum's sqrt.

    Runs the bottom-up recursion of Algorithm 5's first phase: for each
    node, either its own out-edge bandwidth squared, or the best covers of
    its children summed — whichever is smaller.  At the root only the
    children sum is allowed (the root has no out-edge, and the trivial
    cover ``{r}`` is excluded by Theorem 4).

    Returns ``(cover, sqrt(sum of squared bandwidths))``; this value is
    exactly ``w~_r`` of Lemma 8(3).
    """
    if not dagger.parent:
        raise TopologyError("single-node topology has no non-trivial cover")

    best_value: dict = {}
    best_cover: dict = {}

    def visit(node: NodeId) -> None:
        children = dagger.children(node)
        for child in children:
            visit(child)
        child_sum = sum(best_value[c] for c in children)
        child_cover = frozenset().union(*(best_cover[c] for c in children)) if children else frozenset()
        if node == dagger.root:
            best_value[node] = child_sum
            best_cover[node] = child_cover
            return
        own = dagger.out_bandwidth[node] ** 2
        if children and child_sum < own:
            best_value[node] = child_sum
            best_cover[node] = child_cover
        else:
            best_value[node] = own
            best_cover[node] = frozenset({node})

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(dagger.tree.nodes) + 100))
    try:
        visit(dagger.root)
    finally:
        sys.setrecursionlimit(old_limit)
    return best_cover[dagger.root], best_value[dagger.root] ** 0.5


def minimal_covers(dagger: Dagger) -> Iterator[frozenset]:
    """Enumerate all minimal covers ``U != {root}`` (for small trees).

    A minimal cover picks, independently for each subtree hanging off the
    root, either the child itself or recursively a minimal cover of that
    child's subtree; minimality holds because the chosen nodes' subtrees
    are disjoint and each contains at least one leaf.
    """

    def combine(children: list) -> Iterator[frozenset]:
        """Every union of one minimal cover per child's subtree."""
        options = [list(covers_of(child)) for child in children]
        return (frozenset().union(*picks) for picks in product(*options))

    def covers_of(node: NodeId) -> Iterator[frozenset]:
        yield frozenset({node})
        children = dagger.children(node)
        if children:
            yield from combine(children)

    children = dagger.children(dagger.root)
    if children:
        yield from combine(children)


def cover_value(dagger: Dagger, cover: frozenset) -> float:
    """``sqrt(sum of squared out-edge bandwidths)`` for a cover."""
    return sum(dagger.out_bandwidth[u] ** 2 for u in cover) ** 0.5
