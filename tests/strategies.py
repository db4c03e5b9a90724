"""Shared hypothesis strategies: random trees, placements, instances.

Random trees are built as recursive trees (each node attaches to a
uniformly chosen earlier node), which reaches every tree shape; leaves
become compute nodes, matching the paper's normalized form.  Bandwidths
are drawn from a small grid of powers of two so bottlenecks move around
without floating-point noise.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.data.distribution import Distribution
from repro.data.generators import gnm_random_graph
from repro.graphs.model import PlacedGraph
from repro.queries.tuples import encode_tuples
from repro.topology.tree import TreeTopology

BANDWIDTH_CHOICES = (0.5, 1.0, 2.0, 4.0, 8.0)


@st.composite
def tree_topologies(
    draw,
    *,
    min_nodes: int = 3,
    max_nodes: int = 12,
    symmetric: bool = True,
) -> TreeTopology:
    """A random symmetric tree whose leaves are the compute nodes."""
    num_nodes = draw(st.integers(min_nodes, max_nodes))
    parents = [
        draw(st.integers(0, i - 1)) for i in range(1, num_nodes)
    ]
    bandwidths = [
        draw(st.sampled_from(BANDWIDTH_CHOICES)) for _ in range(1, num_nodes)
    ]
    edges = {
        (f"n{i}", f"n{parent}"): bandwidth
        for i, (parent, bandwidth) in enumerate(
            zip(parents, bandwidths), start=1
        )
    }
    degree: dict[str, int] = {}
    for (a, b) in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    computes = [node for node, d in degree.items() if d == 1]
    return TreeTopology.from_undirected(
        edges, computes, name=f"hyp-tree({num_nodes})"
    )


@st.composite
def shaped_trees(draw, *, max_nodes: int = 12) -> TreeTopology:
    """A random tree, a star, a path or a single node, under an arbitrary
    compute set (inner nodes may compute, leaves may route) and, half the
    time, with the two directions of every link drawn apart."""
    shape = draw(st.sampled_from(("random", "star", "path", "single")))
    count = draw(st.integers(2, max(max_nodes, 2)))
    if shape == "random":
        tree = draw(tree_topologies(min_nodes=2, max_nodes=max(max_nodes, 2)))
    elif shape == "single":
        tree = TreeTopology({}, ["solo"], name="single-node")
    else:
        ends = (
            [("hub", f"s{i}") for i in range(1, count)]
            if shape == "star"
            else [(f"p{i}", f"p{i + 1}") for i in range(count - 1)]
        )
        tree = TreeTopology.from_undirected(
            {end: draw(st.sampled_from(BANDWIDTH_CHOICES)) for end in ends},
            [node for end in ends for node in end],
            name=shape,
        )
    tree = tree.with_compute_nodes(
        draw(st.sets(st.sampled_from(sorted(tree.nodes, key=str)), min_size=1))
    )
    if draw(st.booleans()):
        tree = tree.with_bandwidths(
            {
                edge: draw(st.sampled_from(BANDWIDTH_CHOICES))
                for edge in sorted(tree.directed_edges)
            }
        )
    return tree


@st.composite
def node_sizes(draw, tree: TreeTopology, *, max_size: int = 40) -> dict:
    """Random per-compute-node sizes (some may be zero)."""
    return {
        v: draw(st.integers(0, max_size))
        for v in sorted(tree.compute_nodes, key=str)
    }


@st.composite
def set_pair_instances(
    draw,
    *,
    min_nodes: int = 3,
    max_nodes: int = 10,
    max_fragment: int = 25,
):
    """A random tree plus an (R, S) placement with controlled overlap."""
    tree = draw(tree_topologies(min_nodes=min_nodes, max_nodes=max_nodes))
    computes = sorted(tree.compute_nodes, key=str)
    r_sizes = [draw(st.integers(0, max_fragment)) for _ in computes]
    s_sizes = [draw(st.integers(0, max_fragment)) for _ in computes]
    r_total, s_total = sum(r_sizes), sum(s_sizes)
    overlap = draw(st.integers(0, min(r_total, s_total)))
    pool = np.arange(1, r_total + s_total - overlap + 1, dtype=np.int64)
    shuffle_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(shuffle_seed)
    rng.shuffle(pool)
    common = pool[:overlap]
    r_values = np.concatenate([common, pool[overlap:r_total]])
    s_values = np.concatenate([common, pool[r_total:]])
    rng.shuffle(r_values)
    rng.shuffle(s_values)
    placements: dict = {}
    r_offset = s_offset = 0
    for node, r_count, s_count in zip(computes, r_sizes, s_sizes):
        placements[node] = {
            "R": r_values[r_offset : r_offset + r_count],
            "S": s_values[s_offset : s_offset + s_count],
        }
        r_offset += r_count
        s_offset += s_count
    return tree, Distribution(placements)


@st.composite
def sort_instances(
    draw,
    *,
    min_nodes: int = 3,
    max_nodes: int = 10,
    max_fragment: int = 30,
):
    """A random tree plus a single-relation placement of distinct values."""
    tree = draw(tree_topologies(min_nodes=min_nodes, max_nodes=max_nodes))
    computes = sorted(tree.compute_nodes, key=str)
    sizes = [draw(st.integers(0, max_fragment)) for _ in computes]
    total = sum(sizes)
    values = np.arange(1, total + 1, dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rng.shuffle(values)
    placements: dict = {}
    offset = 0
    for node, count in zip(computes, sizes):
        placements[node] = {"R": values[offset : offset + count]}
        offset += count
    return tree, Distribution(placements)


@st.composite
def keyed_instances(draw, *, max_nodes: int = 10, max_fragment: int = 25):
    """A random tree plus ``R`` tuples whose keys repeat within and across nodes."""
    tree = draw(tree_topologies(max_nodes=max_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    num_keys = draw(st.integers(1, 30))
    placements: dict = {}
    for node in sorted(tree.compute_nodes, key=str):
        count = draw(st.integers(0, max_fragment))
        placements[node] = {
            "R": encode_tuples(
                rng.integers(0, num_keys, count), rng.integers(0, 100, count)
            )
        }
    return tree, Distribution(placements)


@st.composite
def graph_instances(draw, *, max_nodes: int = 10, max_vertices: int = 40):
    """A random tree plus a simple graph's edges placed on its compute nodes."""
    tree = draw(tree_topologies(max_nodes=max_nodes))
    num_vertices = draw(st.integers(2, max_vertices))
    num_edges = draw(st.integers(0, min(60, num_vertices * (num_vertices - 1) // 2)))
    seed = draw(st.integers(0, 2**16))
    policy = draw(st.sampled_from(["uniform", "zipf", "single-heavy"]))
    edges = gnm_random_graph(num_vertices, num_edges, seed=seed)
    graph = PlacedGraph.from_edges(tree, edges, policy=policy, seed=seed)
    return tree, graph.distribution
