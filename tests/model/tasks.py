"""Task outputs by definition: Python sets, sorted lists, dicts and a
union-find over the global input."""

from __future__ import annotations

from collections import Counter

from repro.graphs.model import decode_edges
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples
from tests.model.paths import links, sides


def rows(values, payload_bits=DEFAULT_PAYLOAD_BITS) -> list:
    """Encoded tuples as ``(key, payload)`` pairs."""
    keys, payloads = decode_tuples(values, payload_bits=payload_bits)
    return list(zip(map(int, keys), map(int, payloads)))


def graph_edges(values) -> list:
    """Encoded edges as ``(u, v)`` pairs."""
    src, dst = decode_edges(values)
    return list(zip(map(int, src), map(int, dst)))


def intersection(distribution) -> list:
    r, s = (set(distribution.relation(tag).tolist()) for tag in "RS")
    return sorted(r & s)


def join(r_rows, s_rows) -> Counter:
    """``(key, r payload, s payload)`` of every joined pair of two lists
    of ``(key, payload)`` rows."""
    right: dict = {}
    for key, payload in s_rows:
        right.setdefault(key, []).append(payload)
    return Counter((key, r, s) for key, r in r_rows for s in right.get(key, ()))


def aggregate(pairs, op: str) -> dict:
    """``{key: op over its values}`` of ``(key, value)`` pairs."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(int(key), []).append(int(value))
    fold = {"sum": sum, "count": len, "min": min, "max": max}[op]
    return {key: fold(values) for key, values in groups.items()}


def components(edges) -> dict:
    """``{vertex: least vertex of its component}`` by union-find, over
    the endpoints of ``edges``."""
    parent: dict = {}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for edge in edges:
        u, v = map(int, edge)
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        parent[max(ru, rv)] = min(ru, rv)
    return {v: find(v) for v in parent}


def degrees(edges) -> Counter:
    return Counter(int(v) for edge in edges for v in edge)


def triangle_count(edges) -> int:
    """Vertex triples whose three pairs are all edges."""
    pairs = {tuple(sorted(map(int, edge))) for edge in edges}
    neighbours: dict = {}
    for u, v in pairs:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    return sum(
        len(neighbours[u] & neighbours[v] - {u, v}) for u, v in pairs if u != v
    ) // 3


def sorted_along(tree, outputs, order, expected) -> bool:
    """``outputs`` sort ``expected`` along a valid order: the runs read
    in that order are ``sorted(expected)``, and no node outside it holds
    output."""
    runs = [int(x) for node in order for x in outputs.get(node, ())]
    return (
        valid_order(tree, order)
        and set(outputs) <= set(order)
        and runs == sorted(map(int, expected))
    )


def valid_order(tree, order) -> bool:
    """A left-to-right traversal of some rooting: every compute node once,
    and on each link one side's compute nodes are consecutive."""
    if len(set(order)) != len(order) or set(order) != set(tree.compute_nodes):
        return False
    position = {node: i for i, node in enumerate(order)}
    for link in links(tree):
        spans = [sorted(position[v] for v in side) for side in sides(tree, link)]
        if not any(not s or s[-1] - s[0] + 1 == len(s) for s in spans):
            return False
    return True
