"""The registered lower bounds, each its formula over link sides found
by :func:`tests.model.paths.sides`.  A per-link bound is its
``{link: value}`` dict, each link a ``frozenset`` of its two ends;
:func:`value` reads off the maximum.

Flow bounds charge a link half what its lighter side holds; shared-key
bounds charge it half the keys (vertices, components) held on both
sides.  Theorem 4 is ``N / sqrt(sum_u w_u^2)`` for the best minimal
cover ``U`` of G-dagger, found by trying every node set, so it is for
small trees only.
"""

from __future__ import annotations

from itertools import combinations

from repro.graphs.model import DEFAULT_EDGE_TAG
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS
from repro.topology.tree import node_sort_key
from tests.model import tasks
from tests.model.paths import ancestors, links, sides


def _per_link(tree, charge) -> dict:
    """``{e: charge(side, other side) / w_e}`` over every link ``e``."""
    return {
        frozenset(link): charge(*sides(tree, link)) / tree.bandwidth(*link)
        for link in links(tree)
    }


def value(bound) -> float:
    """A bound's value: a per-link dict's largest link (0 with no links)."""
    return max(bound.values(), default=0.0) if isinstance(bound, dict) else bound


def _sizes(tree, distribution, *tags) -> dict:
    return {v: sum(distribution.size(v, tag) for tag in tags) for v in tree.compute_nodes}


def _flow(tree, sizes, cap=float("inf")) -> dict:
    """The lighter side's data crosses the link, half of it at least in
    one of the two directions."""
    return _per_link(
        tree,
        lambda a, b: min(sum(sizes[v] for v in a), sum(sizes[v] for v in b), cap)
        / 2.0,
    )


def _shared(tree, held: dict) -> dict:
    """``held[v]`` is the set of keys compute node ``v`` holds."""
    def union(side):
        return set().union(*(held[v] for v in side))

    return _per_link(tree, lambda a, b: len(union(a) & union(b)) / 2.0)


def intersection(tree, distribution) -> dict:
    """Theorem 1, for set intersection and the equi-join."""
    cap = min(distribution.total("R"), distribution.total("S"))
    return _flow(tree, _sizes(tree, distribution, "R", "S"), cap)


def sorting(tree, distribution) -> dict:
    """Theorem 6."""
    return _flow(tree, _sizes(tree, distribution, "R"))


def theorem3(tree, distribution) -> dict:
    return _flow(tree, _sizes(tree, distribution, "R", "S"))


def cartesian(tree, distribution):
    """The stronger of Theorem 3's links and Theorem 4's value; a tie
    goes to Theorem 3."""
    flow, cover = theorem3(tree, distribution), theorem4(tree, distribution)
    return cover if cover > value(flow) else flow


def dagger(tree, sizes) -> tuple:
    """G-dagger: ``(root, head, width)``, each link pointing at its
    heavier side (a tie at the side holding the largest node),
    ``head[v]`` the far end of ``v``'s out-link and ``width[v]`` its
    bandwidth."""
    total = sum(sizes.get(v, 0) for v in tree.compute_nodes)
    pivot = max(tree.nodes, key=node_sort_key)
    head, width = {}, {}
    for child, parent in links(tree):
        light = sum(sizes.get(v, 0) for v in sides(tree, (child, parent))[0])
        toward_parent = 2 * light < total or (
            2 * light == total and child not in ancestors(tree, pivot)
        )
        tail = child if toward_parent else parent
        head[tail] = parent if toward_parent else child
        width[tail] = tree.bandwidth(child, parent)
    (root,) = set(tree.nodes) - head.keys()
    return root, head, width


def theorem4(tree, distribution) -> float:
    sizes = _sizes(tree, distribution, "R", "S")
    total = sum(sizes.values())
    if not total or len(tree.nodes) == 1:
        return 0.0
    root, head, width = dagger(tree, sizes)
    if root in tree.compute_nodes:
        return 0.0
    above = {}  # node -> itself and every node its out-edges lead to
    for node in tree.nodes:
        chain, at = {node}, node
        while at in head:
            at = head[at]
            chain.add(at)
        above[node] = chain
    leaves = set(tree.nodes) - set(head.values())

    def covers(nodes) -> bool:
        return all(above[leaf] & nodes for leaf in leaves)

    candidates = sorted(head, key=node_sort_key)
    best = min(
        sum(width[u] ** 2 for u in cover)
        for size in range(1, len(candidates) + 1)
        for cover in map(set, combinations(candidates, size))
        if covers(cover) and not any(covers(cover - {u}) for u in cover)
    )
    return total / best**0.5


def groupby(tree, distribution, *, payload_bits=DEFAULT_PAYLOAD_BITS) -> dict:
    return _shared(
        tree,
        {
            v: {key for key, _ in tasks.rows(distribution.fragment(v, "R"), payload_bits)}
            for v in tree.compute_nodes
        },
    )


def _held_vertices(tree, distribution) -> dict:
    return {
        v: {x for edge in tasks.graph_edges(distribution.fragment(v, DEFAULT_EDGE_TAG)) for x in edge}
        for v in tree.compute_nodes
    }


def triangles(tree, distribution) -> dict:
    return _shared(tree, _held_vertices(tree, distribution))


def components(tree, distribution) -> dict:
    label = tasks.components(tasks.graph_edges(distribution.relation(DEFAULT_EDGE_TAG)))
    held = _held_vertices(tree, distribution)
    return _shared(tree, {v: {label[x] for x in held[v]} for v in held})
