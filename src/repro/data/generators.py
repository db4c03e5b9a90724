"""Workload generators: relations and their initial placements.

Two orthogonal choices define every experiment instance:

* **what the data is** — :func:`make_set_pair` builds the relation pair
  ``(R, S)`` with a controlled intersection size; :func:`make_sort_input`
  builds a totally ordered set;
* **where it starts** — the ``place_*`` policies split a relation across
  compute nodes: uniformly (the classic MPC assumption), Zipf-skewed,
  single-node-heavy (the regime where "gather at the heavy node" wins),
  proportional to link bandwidth, or adversarially interleaved by rank
  (the initial distribution constructed in the proof of Theorem 6 /
  Figure 5, which forces any correct sort to shuffle half of each link's
  lighter side).

All generators are deterministic in their ``seed``.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.data.columns import offsets_of
from repro.data.distribution import Distribution
from repro.errors import DistributionError
from repro.topology.tree import NodeId, TreeTopology
from repro.util.seeding import derive_seed

PlacementSizes = Mapping[NodeId, int]


def make_set_pair(
    r_size: int,
    s_size: int,
    *,
    intersection_size: int | None = None,
    seed: int = 0,
    domain: int = 2**40,
) -> tuple[np.ndarray, np.ndarray]:
    """Two sets ``R``, ``S`` with exactly ``intersection_size`` common values.

    Defaults to an intersection of ``min(|R|, |S|) // 4``.  Elements are
    distinct random integers in ``[0, domain)``, shuffled so fragment
    boundaries carry no structure.
    """
    if intersection_size is None:
        intersection_size = min(r_size, s_size) // 4
    if intersection_size > min(r_size, s_size):
        raise DistributionError(
            f"intersection {intersection_size} exceeds min(|R|,|S|)"
            f"={min(r_size, s_size)}"
        )
    total_distinct = r_size + s_size - intersection_size
    if total_distinct > domain:
        raise DistributionError("domain too small for the requested sizes")
    rng = np.random.default_rng(derive_seed(seed, "set-pair"))
    pool = rng.choice(domain, size=total_distinct, replace=False).astype(np.int64)
    common = pool[:intersection_size]
    r_only = pool[intersection_size : r_size]
    s_only = pool[r_size:]
    r_values = np.concatenate([common, r_only])
    s_values = np.concatenate([common, s_only])
    rng.shuffle(r_values)
    rng.shuffle(s_values)
    return r_values, s_values


def make_sort_input(
    size: int, *, seed: int = 0, domain: int = 2**40
) -> np.ndarray:
    """``size`` distinct random integers (a totally ordered set)."""
    rng = np.random.default_rng(derive_seed(seed, "sort-input"))
    return rng.choice(domain, size=size, replace=False).astype(np.int64)


# --------------------------------------------------------------------- #
# placement size policies
# --------------------------------------------------------------------- #


def place_uniform(total: int, nodes: Sequence[NodeId]) -> dict:
    """Split ``total`` as evenly as possible — the classic MPC assumption."""
    if not nodes:
        raise DistributionError("no nodes to place data on")
    base, extra = divmod(total, len(nodes))
    return {
        node: base + (1 if index < extra else 0)
        for index, node in enumerate(nodes)
    }


def place_zipf(
    total: int, nodes: Sequence[NodeId], *, exponent: float = 1.0
) -> dict:
    """Zipf-skewed sizes: node ``i`` gets weight ``1 / (i+1)^exponent``."""
    if not nodes:
        raise DistributionError("no nodes to place data on")
    weights = np.array(
        [1.0 / (i + 1) ** exponent for i in range(len(nodes))]
    )
    return place_by_weights(total, nodes, weights)


def place_single_heavy(
    total: int, nodes: Sequence[NodeId], *, heavy_fraction: float = 0.8,
    heavy_index: int = 0,
) -> dict:
    """One node holds ``heavy_fraction`` of the data, the rest share evenly.

    With ``heavy_fraction > 0.5`` this produces the ``max_v N_v > N/2``
    regime in which gathering everything at the heavy node is optimal
    (Algorithm 4 / the wTS short-circuit).
    """
    if not 0.0 <= heavy_fraction <= 1.0:
        raise DistributionError("heavy_fraction must be in [0, 1]")
    if not nodes:
        raise DistributionError("no nodes to place data on")
    heavy = int(round(total * heavy_fraction))
    sizes = {node: 0 for node in nodes}
    heavy_node = nodes[heavy_index % len(nodes)]
    sizes[heavy_node] = heavy
    rest = [n for n in nodes if n != heavy_node]
    if rest:
        for node, amount in place_uniform(total - heavy, rest).items():
            sizes[node] = amount
    else:
        sizes[heavy_node] = total
    return sizes


def place_proportional(
    total: int, nodes: Sequence[NodeId], weights: Mapping[NodeId, float]
) -> dict:
    """Sizes proportional to given per-node weights (e.g. link bandwidth)."""
    weight_list = np.array([float(weights[n]) for n in nodes])
    return place_by_weights(total, nodes, weight_list)


def placement_sizes(
    tree: TreeTopology,
    total: int,
    policy: str,
    nodes: Sequence[NodeId] | None = None,
    *,
    zipf_exponent: float = 1.0,
    heavy_fraction: float = 0.8,
) -> dict:
    """Per-node sizes for a named placement policy — the single dispatch.

    ``policy`` is one of ``uniform``, ``zipf``, ``single-heavy``,
    ``proportional`` (to compute-node uplink bandwidth, with infinite
    links weighted as if they carried the whole input; a lone node has
    no uplink and counts as an infinite one).  Every generator that
    accepts a policy name routes through here.
    """
    if nodes is None:
        nodes = tree.left_to_right_compute_order()
    if policy == "uniform":
        return place_uniform(total, nodes)
    if policy == "zipf":
        return place_zipf(total, nodes, exponent=zipf_exponent)
    if policy == "single-heavy":
        return place_single_heavy(
            total, nodes, heavy_fraction=heavy_fraction
        )
    if policy == "proportional":
        uplinks = {
            n: tree.bandwidth(n, up[0]) if (up := tree.neighbors(n)) else np.inf
            for n in nodes
        }
        finite = {
            n: (w if np.isfinite(w) else max(1.0, float(total)))
            for n, w in uplinks.items()
        }
        return place_proportional(total, nodes, finite)
    raise DistributionError(f"unknown placement policy {policy!r}")


def place_by_weights(
    total: int, nodes: Sequence[NodeId], weights: np.ndarray
) -> dict:
    """Largest-remainder apportionment of ``total`` by ``weights``."""
    if len(nodes) != len(weights):
        raise DistributionError("one weight per node required")
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise DistributionError("weights must be non-negative, not all zero")
    exact = weights / weights.sum() * total
    floors = np.floor(exact).astype(np.int64)
    deficit = int(total - floors.sum())
    remainders = exact - floors
    order = np.argsort(-remainders, kind="stable")
    for i in range(deficit):
        floors[order[i]] += 1
    return {node: int(size) for node, size in zip(nodes, floors)}


# --------------------------------------------------------------------- #
# assembling distributions
# --------------------------------------------------------------------- #


def distribute(
    values: np.ndarray,
    sizes: PlacementSizes,
    *,
    tag: str,
    shuffle_seed: int | None = None,
) -> Distribution:
    """Place ``values`` on nodes according to per-node ``sizes``.

    Sizes must sum to ``len(values)``.  When ``shuffle_seed`` is given the
    values are shuffled first, decoupling fragment boundaries from value
    order; leave it ``None`` to preserve order (required by the
    adversarial sorted placement).
    """
    total = sum(sizes.values())
    if total != len(values):
        raise DistributionError(
            f"sizes sum to {total} but there are {len(values)} values"
        )
    data = np.asarray(values, dtype=np.int64)
    if shuffle_seed is not None:
        data = data.copy()
        np.random.default_rng(derive_seed(shuffle_seed, "distribute", tag)).shuffle(data)
    offsets = offsets_of(np.fromiter(sizes.values(), np.intp, len(sizes)))
    return Distribution.from_columns(tuple(sizes), {tag: (data, offsets)})


def merge_distributions(*parts: Distribution) -> Distribution:
    """Combine distributions over disjoint relation tags."""
    seen_tags: set[str] = set()
    for part in parts:
        overlap = seen_tags & set(part.tags)
        if overlap:
            raise DistributionError(f"duplicate relation tags {sorted(overlap)}")
        seen_tags |= set(part.tags)
    nodes = parts[0].node_order if parts else ()
    if all(part.node_order == nodes for part in parts):  # one layout: share it
        return Distribution.from_columns(
            nodes, {tag: part.column(tag) for part in parts for tag in part.tags}
        )
    placements: dict = {}
    for part in parts:
        for node in part.node_order:
            target = placements.setdefault(node, {})
            for tag in part.tags:
                target[tag] = part.fragment(node, tag)
    return Distribution(placements)


def random_distribution(
    tree: TreeTopology,
    *,
    r_size: int,
    s_size: int,
    intersection_size: int | None = None,
    policy: str = "uniform",
    seed: int = 0,
    zipf_exponent: float = 1.0,
    heavy_fraction: float = 0.8,
) -> Distribution:
    """One-call workload: an ``(R, S)`` pair placed by a named policy.

    ``policy`` is one of ``uniform``, ``zipf``, ``single-heavy``,
    ``proportional`` (to compute-node uplink bandwidth).
    """
    nodes = tree.left_to_right_compute_order()
    r_values, s_values = make_set_pair(
        r_size, s_size, intersection_size=intersection_size, seed=seed
    )

    def sizes_for(total: int) -> dict:
        return placement_sizes(
            tree,
            total,
            policy,
            nodes,
            zipf_exponent=zipf_exponent,
            heavy_fraction=heavy_fraction,
        )

    r_part = distribute(
        r_values,
        sizes_for(r_size),
        tag="R",
        shuffle_seed=derive_seed(seed, "place-R"),
    )
    s_part = distribute(
        s_values,
        sizes_for(s_size),
        tag="S",
        shuffle_seed=derive_seed(seed, "place-S"),
    )
    return merge_distributions(r_part, s_part)


def random_tuple_distribution(
    tree: TreeTopology,
    *,
    r_size: int,
    s_size: int,
    key_space: int | None = None,
    payload_bits: int = 20,
    policy: str = "uniform",
    seed: int = 0,
) -> Distribution:
    """Keyed-tuple workload for the multi-input tasks (join, group-by).

    Both relations hold ``(key, payload)`` tuples packed by
    :func:`repro.queries.tuples.encode_tuples`, with keys uniform in
    ``[0, key_space)`` (default: ``max(r_size, s_size) // 2``, giving a
    join selectivity of a few matches per key) and random payloads.
    Placement policies are the same as :func:`random_distribution`.
    """
    # Imported here: repro.queries imports this module's placement
    # helpers, so a top-level import would be circular.
    from repro.queries.tuples import encode_tuples

    if key_space is None:
        key_space = max(1, max(r_size, s_size) // 2)
    nodes = tree.left_to_right_compute_order()
    rng = np.random.default_rng(derive_seed(seed, "tuple-pair"))
    # Payload values stay small so per-key aggregates (sums of all of a
    # key's payloads) still fit the payload width — the group-by
    # protocols ship partial sums re-encoded at the same width.
    payload_limit = min(1 << payload_bits, 1024)

    def encoded(total: int) -> np.ndarray:
        keys = rng.integers(0, key_space, size=total)
        payloads = rng.integers(0, payload_limit, size=total)
        return encode_tuples(keys, payloads, payload_bits=payload_bits)

    r_part = distribute(
        encoded(r_size), placement_sizes(tree, r_size, policy, nodes), tag="R"
    )
    s_part = distribute(
        encoded(s_size), placement_sizes(tree, s_size, policy, nodes), tag="S"
    )
    return merge_distributions(r_part, s_part)


# --------------------------------------------------------------------- #
# graph workloads
# --------------------------------------------------------------------- #


def gnm_random_graph(
    num_vertices: int, num_edges: int, *, seed: int = 0
) -> np.ndarray:
    """A uniform simple graph ``G(n, m)``: ``(m, 2)`` edges, ``src < dst``.

    Edges are distinct uniform samples from all ``n (n - 1) / 2``
    vertex pairs; deterministic in ``seed``.
    """
    if num_vertices < 0 or num_edges < 0:
        raise DistributionError("graph sizes must be non-negative")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise DistributionError(
            f"{num_edges} edges requested but a simple graph on "
            f"{num_vertices} vertices has at most {max_edges}"
        )
    if num_edges == 0:
        return np.empty((0, 2), np.int64)
    rng = np.random.default_rng(derive_seed(seed, "gnm"))
    # Sample edge *indices* without replacement from the upper triangle,
    # then invert the row-major pair numbering — exact and vectorised.
    chosen = rng.choice(max_edges, size=num_edges, replace=False).astype(
        np.int64
    )
    # Pair k maps to (u, v): u is the largest integer with
    # u*(2n - u - 1)/2 <= k; solve by binary search over the offsets.
    offsets = np.cumsum(
        np.arange(num_vertices - 1, 0, -1, dtype=np.int64)
    )  # offsets[u] = #pairs with src <= u
    src = np.searchsorted(offsets, chosen, side="right")
    base = np.where(src > 0, offsets[src - 1], 0)
    dst = src + 1 + (chosen - base)
    return np.stack([src, dst], axis=1)


def powerlaw_graph(
    num_vertices: int,
    num_edges: int,
    *,
    exponent: float = 2.0,
    seed: int = 0,
    max_attempts: int = 64,
) -> np.ndarray:
    """A heavy-tailed simple graph: endpoints drawn with Zipfian weights.

    Vertex ``i`` is sampled with probability proportional to
    ``(i + 1) ** -exponent``, so low-numbered vertices become hubs —
    the skewed-degree regime where placement-aware shuffles matter
    most.  Self-loops and duplicates are rejected and resampled;
    raises :class:`DistributionError` if ``num_edges`` distinct edges
    cannot be found in ``max_attempts`` batches.
    """
    if exponent < 0:
        raise DistributionError("exponent must be non-negative")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise DistributionError(
            f"{num_edges} edges requested but a simple graph on "
            f"{num_vertices} vertices has at most {max_edges}"
        )
    if num_edges == 0:
        return np.empty((0, 2), np.int64)
    rng = np.random.default_rng(derive_seed(seed, "powerlaw"))
    weights = (np.arange(1, num_vertices + 1, dtype=np.float64)) ** -exponent
    weights /= weights.sum()
    found = np.empty((0, 2), np.int64)
    for _ in range(max_attempts):
        batch = rng.choice(
            num_vertices, size=(2 * num_edges, 2), p=weights
        ).astype(np.int64)
        batch = batch[batch[:, 0] != batch[:, 1]]
        lo = np.minimum(batch[:, 0], batch[:, 1])
        hi = np.maximum(batch[:, 0], batch[:, 1])
        found = np.unique(
            np.concatenate([found, np.stack([lo, hi], axis=1)]), axis=0
        )
        if len(found) >= num_edges:
            # Keep a deterministic uniform subsample of the distinct
            # edges found so far, preserving the degree skew.
            keep = rng.choice(len(found), size=num_edges, replace=False)
            return found[np.sort(keep)]
    raise DistributionError(
        f"could not draw {num_edges} distinct power-law edges "
        f"(exponent {exponent}) in {max_attempts} batches; "
        "lower the exponent or the edge count"
    )


def planted_components_graph(
    num_components: int,
    component_size: int,
    *,
    intra_edges: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Disjoint planted components, each connected by construction.

    Component ``i`` owns the vertex block ``[i * component_size,
    (i + 1) * component_size)`` and holds a random spanning tree plus
    ``intra_edges`` extra random intra-block edges (default:
    ``component_size``), so a correct connectivity algorithm must
    recover exactly the blocks — the ground truth the property tests
    assert.
    """
    if num_components < 1 or component_size < 2:
        raise DistributionError(
            "need at least one component of at least two vertices"
        )
    if intra_edges is None:
        intra_edges = component_size
    parts = []
    for index in range(num_components):
        offset = index * component_size
        rng = np.random.default_rng(
            derive_seed(seed, "planted", index)
        )
        # Random spanning tree: attach each vertex to a random earlier one.
        order = rng.permutation(component_size).astype(np.int64)
        attach = np.array(
            [order[rng.integers(0, i)] for i in range(1, component_size)],
            dtype=np.int64,
        )
        tree_edges = np.stack([order[1:], attach], axis=1)
        extra = rng.integers(
            0, component_size, size=(intra_edges, 2)
        ).astype(np.int64)
        extra = extra[extra[:, 0] != extra[:, 1]]
        block = np.concatenate([tree_edges, extra]) + offset
        lo = np.minimum(block[:, 0], block[:, 1])
        hi = np.maximum(block[:, 0], block[:, 1])
        parts.append(np.unique(np.stack([lo, hi], axis=1), axis=0))
    return np.concatenate(parts)


GRAPH_KINDS = ("gnm", "powerlaw", "planted")


def random_graph_distribution(
    tree: TreeTopology,
    *,
    num_edges: int,
    num_vertices: int | None = None,
    kind: str = "gnm",
    policy: str = "uniform",
    seed: int = 0,
    exponent: float = 2.0,
    num_components: int = 4,
) -> Distribution:
    """One-call graph workload: edges generated and placed by policy.

    ``kind`` picks the generator (``gnm`` / ``powerlaw`` / ``planted``)
    and ``policy`` the placement regime, mirroring
    :func:`random_distribution` for relations.  Returns the placed
    edge distribution (relation ``"E"``); wrap it in
    :class:`repro.graphs.PlacedGraph` for the graph accessors.
    """
    # Imported here: repro.graphs builds on this module's placement
    # helpers, so a top-level import would be circular.
    from repro.graphs.model import PlacedGraph

    if num_vertices is None:
        # The default must admit a simple graph: the smallest n with
        # n(n-1)/2 >= num_edges, but at least num_edges // 2 so typical
        # instances stay sparse (average degree ~4).
        import math

        feasible = (1 + math.isqrt(1 + 8 * num_edges)) // 2
        while feasible * (feasible - 1) // 2 < num_edges:
            feasible += 1
        num_vertices = max(4, num_edges // 2, feasible)
    if kind == "gnm":
        edges = gnm_random_graph(num_vertices, num_edges, seed=seed)
    elif kind == "powerlaw":
        edges = powerlaw_graph(
            num_vertices, num_edges, exponent=exponent, seed=seed
        )
    elif kind == "planted":
        size = max(2, num_vertices // max(num_components, 1))
        edges = planted_components_graph(
            num_components, size, seed=seed
        )
    else:
        raise DistributionError(
            f"unknown graph kind {kind!r}; choose from {GRAPH_KINDS}"
        )
    return PlacedGraph.from_edges(
        tree,
        edges,
        num_vertices=num_vertices,
        policy=policy,
        seed=seed,
    ).distribution


def adversarial_sorted_distribution(
    tree: TreeTopology,
    sizes: PlacementSizes | None = None,
    *,
    total: int | None = None,
    root: NodeId | None = None,
) -> Distribution:
    """The adversarial placement from the proof of Theorem 6 (Figure 5).

    Values ``1..N`` are laid out in the sequence
    ``r1, r3, ..., r2, r4, ...`` (all odd ranks, then all even ranks) and
    dealt to compute nodes in left-to-right traversal order, each node
    taking ``sizes[v]`` consecutive entries.  Any correct sort must then
    move, across every link, a constant fraction of the lighter side's
    data — making this the placement on which the Theorem 6 lower bound
    is tight.

    Provide either explicit per-node ``sizes`` or a ``total`` to split
    uniformly.
    """
    order = tree.left_to_right_compute_order(root)
    if sizes is None:
        if total is None:
            raise DistributionError("provide sizes or total")
        sizes = place_uniform(total, order)
    n = sum(sizes.values())
    odd_ranks = np.arange(1, n + 1, 2, dtype=np.int64)
    even_ranks = np.arange(2, n + 1, 2, dtype=np.int64)
    sequence = np.concatenate([odd_ranks, even_ranks])
    ordered_sizes = {node: int(sizes.get(node, 0)) for node in order}
    extra = set(sizes) - set(order)
    if extra:
        raise DistributionError(
            f"sizes given for unknown compute nodes {sorted(map(str, extra))}"
        )
    return distribute(sequence, ordered_sizes, tag="R")
