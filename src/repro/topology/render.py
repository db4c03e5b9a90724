"""Plain-text rendering of tree topologies (Figure 1 / Figure 3 style).

Produces an indented ASCII tree annotated with bandwidths, compute-node
markers, and optional per-node data sizes — used by examples and by
benchmark reports so experiment output is self-describing.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping

from repro.topology.tree import NodeId, TreeTopology


def _format_bandwidth(value: float) -> str:
    if math.isinf(value):
        return "inf"
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


def ascii_tree(
    tree: TreeTopology,
    *,
    root: NodeId | None = None,
    node_weights: Mapping[NodeId, float] | None = None,
) -> str:
    """Render ``tree`` rooted at ``root`` as indented ASCII art.

    Compute nodes are marked ``[v]``; routers ``(w)``.  Each child line
    shows the bandwidth of its uplink; asymmetric links show both
    directions as ``down/up``.  ``node_weights`` (e.g. data sizes ``N_v``)
    are appended as ``N=...`` when provided.
    """
    if root is None:
        root = (tree.routers or tree.nodes)[0]
    if root not in tree:
        raise ValueError(f"unknown root {root!r}")

    lines: list[str] = []

    def label(node: NodeId) -> str:
        mark = f"[{node}]" if tree.is_compute_node(node) else f"({node})"
        if node_weights is not None and node in node_weights:
            mark += f" N={node_weights[node]:g}"
        return mark

    def visit(node: NodeId, parent: NodeId | None, prefix: str, tail: bool) -> None:
        if parent is None:
            lines.append(label(node))
            connector_prefix = ""
        else:
            down = tree.bandwidth(parent, node)
            up = tree.bandwidth(node, parent)
            bandwidth = (
                _format_bandwidth(down)
                if down == up
                else f"{_format_bandwidth(down)}/{_format_bandwidth(up)}"
            )
            branch = "`-" if tail else "|-"
            lines.append(f"{prefix}{branch}[w={bandwidth}]-- {label(node)}")
            connector_prefix = prefix + ("  " if tail else "| ")
        children = [n for n in tree.neighbors(node) if n != parent]
        for index, child in enumerate(children):
            visit(child, node, connector_prefix, index == len(children) - 1)

    visit(root, None, "", True)
    return "\n".join(lines)
