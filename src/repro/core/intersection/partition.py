"""α/β edge classification and the balanced partition (Section 3.3).

With ``|R| <= |S|``, a link of the tree is an **α-edge** when the lighter
of its two sides holds less than ``|R|`` data (the link's disjointness
budget is the data itself), and a **β-edge** otherwise (the budget is
``|R|``).  Lemma 2 shows the β-edges induce a connected subtree ``Gβ``.

Algorithm 3 peels ``Gβ`` leaf by leaf, always the lightest first, merging
α-connected groups of compute nodes until each group holds at least
``|R|`` data; the resulting *balanced partition* (Definition 1) is what
lets Algorithm 2 hash ``S`` only within a block while replicating ``R``
across blocks, keeping every link within its budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.errors import ProtocolError, TopologyError
from repro.topology.tree import NodeId, TreeTopology


@dataclass(frozen=True)
class EdgeClassification:
    """The α/β split of the links for one instance (Section 3.3)."""

    alpha: frozenset
    beta: frozenset

    @property
    def num_alpha(self) -> int:
        return len(self.alpha)

    @property
    def num_beta(self) -> int:
        return len(self.beta)


def classify_edges(
    tree: TreeTopology,
    sizes: Mapping[NodeId, int],
    r_size: int,
) -> EdgeClassification:
    """Split links into α-edges and β-edges.

    ``sizes`` are the per-compute-node totals ``N_v``; ``r_size`` is the
    cardinality of the smaller relation ``|R|``.
    """
    alpha: set = set()
    beta: set = set()
    for edge, (minus, plus) in tree.side_weights(sizes).items():
        if min(minus, plus) >= r_size:
            beta.add(edge)
        else:
            alpha.add(edge)
    return EdgeClassification(frozenset(alpha), frozenset(beta))


def _alpha_components(
    tree: TreeTopology, alpha_edges: frozenset
) -> dict[NodeId, int]:
    """Union-find over α-edges: node -> α-component id, numbered in the
    order of each component's first node in ``tree.nodes`` (so
    the ids do not depend on the order the α-edges are merged in)."""
    parent: dict[NodeId, NodeId] = {n: n for n in tree.nodes}

    def find(x: NodeId) -> NodeId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b) in alpha_edges:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b

    index: dict = {}
    for n in tree.nodes:
        index.setdefault(find(n), len(index))
    return {n: index[find(n)] for n in tree.nodes}


def balanced_partition(
    tree: TreeTopology,
    sizes: Mapping[NodeId, int],
    r_size: int,
) -> list[frozenset]:
    """Compute a balanced partition of the compute nodes (Algorithm 3).

    Returns the blocks as frozensets of compute nodes.  When there are no
    β-edges the whole compute set is α-connected and forms one block.

    The peeling keeps Lemma 3's guarantees under the paper's assumption
    ``r_size <= |S|`` (i.e. ``sum_v N_v >= 2 * r_size``); called outside
    that regime, a final under-weight group is merged into the block
    created last, preserving the partition property (noted for
    completeness — the intersection protocol always passes the smaller
    relation).
    """
    return partition_blocks(tree, sizes, r_size, classify_edges(tree, sizes, r_size))


def partition_blocks(
    tree: TreeTopology,
    sizes: Mapping[NodeId, int],
    r_size: int,
    classification: EdgeClassification,
) -> list[frozenset]:
    """:func:`balanced_partition` from the instance's
    :func:`classify_edges` result, for a caller that reads it too."""
    computes = tree.compute_nodes
    if not classification.beta:
        return [frozenset(computes)]

    component_of = _alpha_components(tree, classification.alpha)
    gamma: dict[NodeId, set] = {}
    adjacency: dict[NodeId, set] = {}
    for (a, b) in classification.beta:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    seen_components: dict[int, NodeId] = {}
    for vertex in adjacency:
        component = component_of[vertex]
        if component in seen_components:  # pragma: no cover - Lemma 2
            raise TopologyError(
                f"Gβ vertices {seen_components[component]!r} and {vertex!r} "
                "are α-connected; contradicts Lemma 2"
            )
        seen_components[component] = vertex
        gamma[vertex] = {
            v for v in computes if component_of[v] == component
        }
    weight = {
        x: sum(sizes.get(v, 0) for v in members)
        for x, members in gamma.items()
    }

    blocks: list[frozenset] = []
    remaining = set(adjacency)
    rank = tree.routing_index.index_of  # the node_sort_key order, as ints
    while remaining:
        if len(remaining) == 1:
            x = next(iter(remaining))
            if weight[x] >= r_size or not blocks:
                blocks.append(frozenset(gamma[x]))
            else:
                blocks[-1] = blocks[-1] | frozenset(gamma[x])
            remaining.clear()
            break
        leaves = [v for v in remaining if len(adjacency[v]) == 1]
        x = min(leaves, key=lambda v: (weight[v], rank[v]))
        if weight[x] >= r_size:
            if gamma[x]:
                blocks.append(frozenset(gamma[x]))
        else:
            (y,) = adjacency[x]
            gamma[y] |= gamma[x]
            weight[y] += weight[x]
        (y,) = adjacency[x]
        adjacency[y].discard(x)
        del adjacency[x]
        remaining.discard(x)

    blocks = [b for b in blocks if b]
    covered = frozenset().union(*blocks)
    missing = [v for v in computes if v not in covered]
    extra = len(covered) - (len(computes) - len(missing))
    if missing or extra:  # pragma: no cover - safety net
        raise ProtocolError(
            "balanced partition does not cover exactly the compute nodes; "
            f"missing {sorted(map(str, missing))}, {extra} outside them"
        )
    return blocks


def _members(tree: TreeTopology, block: frozenset) -> np.ndarray:
    """Per node of ``tree.compute_nodes``, whether it is in ``block``."""
    computes = tree.compute_nodes
    return np.fromiter(map(block.__contains__, computes), bool, len(computes))


def _spanning(tree: TreeTopology, members: np.ndarray) -> np.ndarray:
    """Per link, whether both of its sides hold one of the ``members``."""
    minus, plus = tree.link_side_sums(members.astype(np.int64))
    return (minus > 0) & (plus > 0)


def block_spanning_edges(
    tree: TreeTopology, block: frozenset
) -> frozenset:
    """Links of the minimal subtree connecting a block's compute nodes.

    A link belongs to the spanning (Steiner) tree of ``block`` iff both of
    its sides contain at least one member of the block.
    """
    spanning = _spanning(tree, _members(tree, block))
    return frozenset(compress(tree.undirected_edges(), spanning))


def verify_balanced_partition(
    tree: TreeTopology,
    sizes: Mapping[NodeId, int],
    r_size: int,
    blocks: Sequence[frozenset],
) -> list[str]:
    """Check all four properties of Definition 1; return violations.

    An empty list means the partition is balanced.  Used by tests and by
    the Figure 2 benchmark to certify Algorithm 3's output.
    """
    violations: list[str] = []
    computes = tree.compute_nodes

    union: set = set()
    for block in blocks:
        if union & block:
            violations.append("blocks overlap")
        union |= set(block)
    if union != set(computes):
        violations.append("blocks do not cover the compute nodes")

    classification = classify_edges(tree, sizes, r_size)
    component_of = _alpha_components(tree, classification.alpha)
    block_of = {v: i for i, block in enumerate(blocks) for v in block}

    # (1) α-connected compute nodes share a block.
    by_component: dict[int, set] = {}
    for v in computes:
        by_component.setdefault(component_of[v], set()).add(block_of.get(v, -1))
    for component, block_ids in by_component.items():
        if len(block_ids) > 1:
            violations.append(
                f"α-component {component} is split across blocks {sorted(block_ids)}"
            )

    # (2) every link in at most one block's spanning tree.
    links = tree.undirected_edges()
    members = [_members(tree, block) for block in blocks]
    spanning = [_spanning(tree, member) for member in members]
    multiplicity = sum(spanning, np.zeros(len(links), np.int64))
    for k in np.flatnonzero(multiplicity > 1).tolist():
        violations.append(f"link {links[k]} appears in {multiplicity[k]} spanning trees")

    # (3) every block holds at least |R| data.
    for i, block in enumerate(blocks):
        total = sum(sizes.get(v, 0) for v in block)
        if total < r_size:
            violations.append(
                f"block {i} holds {total} < |R|={r_size} elements"
            )

    # (4) every β-edge inside a block's spanning tree has a light side.
    beta = np.fromiter(map(classification.beta.__contains__, links), bool, len(links))
    node_sizes = np.array([sizes.get(v, 0) for v in tree.compute_nodes])
    for i, (member, inside_tree) in enumerate(zip(members, spanning)):
        minus, plus = tree.link_side_sums(np.where(member, node_sizes, 0))
        heavy = beta & inside_tree & (np.minimum(minus, plus) > r_size)
        for k in np.flatnonzero(heavy).tolist():
            violations.append(
                f"β-edge {links[k]} in block {i} has both sides above |R|: "
                f"{minus[k].item()} / {plus[k].item()} vs {r_size}"
            )
    return violations
