"""Topology-aware connected components via hash-to-min label propagation.

The MPC connectivity literature (Andoni et al. 2018, Behnezhad et al.
2019) solves connectivity by repeated shuffle/aggregate supersteps;
this module runs the classic *hash-to-min* label propagation on the
paper's cost model, with the per-round shuffle dispatched to a
**registered** ``groupby-aggregate`` protocol so the topology-aware /
topology-agnostic comparison is inherited from the substrate:

* every vertex starts labelled with its own id;
* each superstep, every node proposes — for each locally held directed
  edge ``(u, v)`` — the message ``(v, label(u))``, plus the identity
  message ``(v, label(v))`` for every vertex it knows, and the
  proposals are min-aggregated per vertex at a hashed *owner*;
* owners push updated labels back to the *subscribers* (the nodes whose
  edge fragments touch the vertex) on the driver's cluster, and the
  iteration stops the first superstep in which no label changes —
  after at most ``diameter + 1`` supersteps per component.

The protocol flavours differ exactly where topology awareness lives:

* ``tree`` — placement-weighted ownership (the registered ``tree``
  group-by), per-node combining before the shuffle, and *delta* return
  legs (only changed labels travel back);
* ``uniform-hash`` — the textbook MPC baseline: uniform ownership, raw
  per-edge messages (no combiner, ``pre_aggregate=False``), and a full
  label refresh every superstep;
* ``gather`` — ship every edge to one node and run union-find there
  (one round; optimal when one node dominates).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gather import gather_relation
from repro.core.common import LowerBound, column_holders
from repro.data.columns import KeyValueArrays
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.graphs.iterate import SuperstepDriver, _run_graph_task
from repro.graphs.model import (
    DEFAULT_EDGE_TAG,
    VERTEX_BITS,
    PlacedGraph,
    decode_edges,
)
from repro.queries.aggregate import GroupOutputs
from repro.queries.tuples import decode_tuples, encode_tuples
from repro.registry import register_protocol, register_task
from repro.report import GraphRunReport
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import NodeId, TreeTopology
from repro.util.components import component_roots
from repro.util.grouping import (
    concat_ranges,
    group_slices,
    sorted_unique,
    unique_rows,
)

_LABEL_RECV = "cc.labels.recv"
_GATHER_RECV = "cc.gather.recv"


# --------------------------------------------------------------------- #
# lower bound + verification
# --------------------------------------------------------------------- #


def _edge_components(distribution: Distribution, tag: str):
    """The global edge list's sorted distinct endpoints, each edge's
    source row among them, and every endpoint's component root row."""
    vertices, src_row, dst_row = _endpoint_rows(
        *decode_edges(distribution.relation(tag))
    )
    return vertices, src_row, component_roots(src_row, dst_row, len(vertices))


def components_lower_bound(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    tag: str = DEFAULT_EDGE_TAG,
) -> LowerBound:
    """A per-link counting lower bound for connectivity.

    Fix a link ``e`` and a component ``C`` whose edges are placed on
    both sides of ``e``.  Because ``C`` is connected, some vertex of
    ``C`` is incident to edges on both sides, and the final label of
    every ``C``-vertex depends on the union of ``C``'s edges — so
    whichever side emits a ``C``-label, at least one element about
    ``C`` must cross ``e``.  Distinct spanning components contribute
    independently — but the link is full-duplex and the algorithm
    chooses per component which side resolves it, splitting the forced
    crossings between the two directed channels, so only the heavier
    direction is forced:

        cost(e) >= |components spanning e| / (2 w_e)

    — the connectivity analogue of the group-by shared-key bound,
    full-duplex factor included.
    """
    tree.require_symmetric("the connectivity lower bound")
    _, src_row, roots = _edge_components(distribution, tag)
    return LowerBound.from_shared_keys(
        tree,
        column_holders(tree, distribution, tag),
        # an edge lies in the component of its source endpoint
        roots[src_row],
        "per-link spanning-component counting (connectivity)",
    )


def _verify_components(
    tree: TreeTopology, distribution: Distribution, result: ProtocolResult
) -> None:
    """Each non-isolated vertex must appear once, with its component min.

    The expected labelling is :func:`component_roots` over the global
    edge list — the kernel the protocols use too, so this checks what
    they deliver and emit; the kernel itself is checked against the
    union-find oracle in tier-1 tests.
    """
    tag = result.meta.get("tag", DEFAULT_EDGE_TAG)
    expected, _, roots = _edge_components(distribution, tag)
    owned = GroupOutputs.of(result.outputs)
    order = np.argsort(owned.keys_array, kind="stable")
    vertices = owned.keys_array[order]
    again = order[1:][vertices[1:] == vertices[:-1]]  # repeats, in output order
    if len(again):
        raise ProtocolError(
            f"{result.protocol} emitted vertex {owned.keys_array[again.min()]} "
            "at two nodes"
        )
    if not (
        np.array_equal(vertices, expected)
        and np.array_equal(owned.values_array[order], expected[roots])
    ):
        raise ProtocolError(
            f"{result.protocol} produced a wrong labelling "
            f"({len(vertices)} vertices vs {len(expected)} expected)"
        )


# --------------------------------------------------------------------- #
# the superstep loop
# --------------------------------------------------------------------- #


def _endpoint_rows(src: np.ndarray, dst: np.ndarray):
    """Sorted distinct endpoints and each edge's two positions among them."""
    keys, rows = np.unique(np.concatenate([src, dst]), return_inverse=True)
    return keys, rows[: len(src)], rows[len(src) :]


def _row_keys(owner: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Vertex-table key of ``(owner index, vertex)``: packed like an edge."""
    return (owner << np.int64(VERTEX_BITS)) | vertex


def _subscriber_subsets(
    row_owner: np.ndarray, vertex_of_row: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicated subscriber sets: the vertex table read by vertex.

    Returns each vertex's subset id and the subsets as one CSR pair:
    subset ``s`` is ``members[offsets[s]:offsets[s + 1]]``, the
    ascending compute-order indices of the nodes whose fragments touch
    the vertex.  Owner segments of equal length are compared as the
    rows of one matrix, so memory stays O(table rows) however many
    nodes there are.
    """
    by_vertex = np.argsort(vertex_of_row, kind="stable")
    owners = row_owner[by_vertex]  # grouped by vertex, ascending within
    lengths = np.bincount(vertex_of_row)
    starts = np.cumsum(lengths) - lengths
    subset_of = np.empty(len(lengths), dtype=np.intp)
    members: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    count = 0
    for length in sorted_unique(lengths).tolist():
        which = np.flatnonzero(lengths == length)
        distinct, inverse = unique_rows(
            owners[starts[which][:, None] + np.arange(length)]
        )
        subset_of[which] = count + inverse
        count += len(distinct)
        members.append(distinct.ravel())
        sizes.append(np.full(len(distinct), length))
    offsets = np.concatenate([[0], np.cumsum(np.concatenate(sizes))])
    return subset_of, np.concatenate(members), offsets


def _hash_to_min(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int,
    tag: str,
    shuffle_protocol: str,
    pre_aggregate: bool,
    delta_return: bool,
    local_closure: bool,
    max_supersteps: int | None,
) -> tuple[SuperstepDriver, dict, dict]:
    """Shared superstep loop; flavours differ only in the knobs above.

    All per-node state is one *vertex table*: a row per ``(owner,
    vertex)`` some fragment touches, sorted by owner then vertex, with
    the row's current label beside it.  With ``local_closure`` a row
    proposes the minimum label over its fragment's *local* connected
    component (free computation in the model — the local-contraction
    optimization of the MPC connectivity literature), all nodes'
    closures coming from one :func:`component_roots` call; without it,
    proposals are the textbook single-hop messages, one per directed
    edge plus one identity message per row.
    """
    tree.require_symmetric("connected components")
    distribution.validate_for(tree)
    driver = SuperstepDriver(tree)
    computes = driver.cluster.compute_order
    base_meta = {
        "tag": tag,
        "payload_bits": VERTEX_BITS,
        "num_edges": distribution.total(tag),
    }
    fragments = [distribution.fragment(v, tag) for v in computes]
    sizes = np.fromiter(map(len, fragments), np.int64, len(computes))
    holders = np.flatnonzero(sizes)
    if not len(holders):
        outputs: dict = {v: KeyValueArrays.empty() for v in computes}
        return driver, outputs, dict(
            base_meta, num_vertices=0, num_supersteps=0, converged=True
        )

    lo, hi = decode_edges(np.concatenate(fragments))
    edge_owner = np.repeat(np.arange(len(computes)), sizes)
    table, lo_row, hi_row = _endpoint_rows(
        _row_keys(edge_owner, lo), _row_keys(edge_owner, hi)
    )
    row_owner, row_vertex = decode_edges(table)
    offsets = np.searchsorted(row_owner, np.arange(len(computes) + 1))
    labels = row_vertex.copy()  # hash-to-min starts at identity
    if local_closure:
        by_component, _, component_starts, component_ends = group_slices(
            component_roots(lo_row, hi_row, len(table))
        )
        component_sizes = component_ends - component_starts
        message_keys, message_offsets = row_vertex, offsets
    else:
        # per node: (hi, label(lo)) and (lo, label(hi)) for every edge,
        # then the identity message of every row
        by_owner = np.argsort(
            np.concatenate([edge_owner, edge_owner, row_owner]), kind="stable"
        )
        message_keys = np.concatenate([hi, lo, row_vertex])[by_owner]
        message_rows = np.concatenate(
            [lo_row, hi_row, np.arange(len(table))]
        )[by_owner]
        message_offsets = offsets + 2 * np.concatenate([[0], np.cumsum(sizes)])

    all_vertices, vertex_of_row = np.unique(row_vertex, return_inverse=True)
    # Return legs group label updates by *subscriber set* (the owners
    # whose fragments touch the vertex); many vertices share one.
    subset_of, subscribers, subscriber_offsets = _subscriber_subsets(
        row_owner, vertex_of_row
    )
    num_subsets = len(subscriber_offsets) - 1
    prev_labels = all_vertices.copy()  # identity is globally known
    if max_supersteps is None:
        max_supersteps = len(all_vertices) + 2

    converged = False
    owned: dict = {}
    for step in range(1, max_supersteps + 1):
        if local_closure:
            proposals = np.empty_like(labels)
            proposals[by_component] = np.repeat(
                np.minimum.reduceat(labels[by_component], component_starts),
                component_sizes,
            )
        else:
            proposals = labels[message_rows]
        messages = encode_tuples(
            message_keys, proposals, payload_bits=VERTEX_BITS
        )
        placements = {
            computes[i]: {
                "R": messages[message_offsets[i] : message_offsets[i + 1]]
            }
            for i in holders.tolist()
        }
        result = driver.protocol_step(
            "groupby-aggregate",
            Distribution(placements),
            protocol=shuffle_protocol,
            label=f"superstep {step} shuffle",
            seed=seed,
            op="min",
            payload_bits=VERTEX_BITS,
            pre_aggregate=pre_aggregate,
        )
        # Every owner's output as one (owner, vertex, label) relation.
        owned = GroupOutputs.of(result.outputs, computes)
        out_owner = np.repeat(np.arange(len(computes)), np.diff(owned.bounds))
        out_vertices, out_labels = owned.keys_array, owned.values_array
        positions = np.searchsorted(all_vertices, out_vertices)
        changed = out_labels != prev_labels[positions]
        if not changed.any():
            converged = True
            break
        prev_labels[positions] = out_labels
        if delta_return:
            out_owner, out_vertices, out_labels, positions = (
                column[changed]
                for column in (out_owner, out_vertices, out_labels, positions)
            )
        # One registration per leg: a group is an (owner, subscriber
        # subset) pair, its Steiner destinations the subset with the
        # owner masked out; a vertex whose only subscriber is its owner
        # ships nothing.
        groups, group_ids = np.unique(
            out_owner * num_subsets + subset_of[positions],
            return_inverse=True,
        )
        group_owner, group_subset = np.divmod(groups, num_subsets)
        sizes = np.diff(subscriber_offsets)[group_subset]
        members = subscribers[
            concat_ranges(subscriber_offsets[group_subset], sizes)
        ]
        group_of = np.repeat(np.arange(len(groups)), sizes)
        away = members != group_owner[group_of]
        fanout = np.bincount(group_of[away], minlength=len(groups))
        ships = (fanout > 0)[group_ids]
        with driver.cluster_round(
            task="connected-components",
            protocol="label-return",
            label=f"superstep {step} return",
            input_size=int(ships.sum()),
        ) as ctx:
            ctx.exchange_multicast_column(
                group_owner,
                group_ids[ships],
                (members[away], np.concatenate([[0], np.cumsum(fanout)])),
                encode_tuples(
                    out_vertices[ships],
                    out_labels[ships],
                    payload_bits=VERTEX_BITS,
                ),
                tag=_LABEL_RECV,
            )
        received = [
            driver.cluster.take(computes[i], _LABEL_RECV)
            for i in holders.tolist()
        ]
        got_vertices, got_labels = decode_tuples(
            np.concatenate(received), payload_bits=VERTEX_BITS
        )
        got_owner = np.repeat(holders, np.fromiter(map(len, received), np.intp))
        # An owner that also holds edges of a vertex updates its own row
        # for free; subscribers update from what the leg delivered.
        keys = _row_keys(
            np.concatenate([out_owner, got_owner]),
            np.concatenate([out_vertices, got_vertices]),
        )
        rows = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        held = table[rows] == keys
        labels[rows[held]] = np.concatenate([out_labels, got_labels])[held]
    if not converged:
        raise ProtocolError(
            f"hash-to-min did not converge within {max_supersteps} supersteps"
        )
    meta = dict(
        base_meta,
        num_vertices=len(all_vertices),
        num_supersteps=step,
        converged=True,
    )
    return driver, owned, meta


def _finalize(
    protocol_name: str, driver: SuperstepDriver, outputs: dict, meta: dict
) -> ProtocolResult:
    meta = dict(meta)
    meta["supersteps"] = [report.to_dict() for report in driver.steps]
    return ProtocolResult.from_ledger(
        protocol_name, driver.ledger, outputs=outputs, meta=meta
    )


# --------------------------------------------------------------------- #
# registered protocols
# --------------------------------------------------------------------- #


@register_protocol(
    task="connected-components",
    name="tree",
    accepts_seed=True,
    description="Hash-to-min over placement-weighted tree shuffles",
)
def tree_connected_components(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
    tag: str = DEFAULT_EDGE_TAG,
    max_supersteps: int | None = None,
) -> ProtocolResult:
    """Distribution-aware hash-to-min: local contraction, delta returns.

    Each node proposes one combined candidate per locally known vertex
    (the minimum over the vertex's *local* connected component — free
    computation), the shuffle is the placement-weighted registered
    ``tree`` group-by, and only labels that actually changed travel
    back to their subscribers.
    """
    driver, outputs, meta = _hash_to_min(
        tree,
        distribution,
        seed=seed,
        tag=tag,
        shuffle_protocol="tree",
        pre_aggregate=True,
        delta_return=True,
        local_closure=True,
        max_supersteps=max_supersteps,
    )
    return _finalize("tree-components", driver, outputs, meta)


@register_protocol(
    task="connected-components",
    name="uniform-hash",
    kind="baseline",
    accepts_seed=True,
    description="Textbook MPC hash-to-min: raw messages, uniform owners",
)
def uniform_hash_connected_components(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
    tag: str = DEFAULT_EDGE_TAG,
    max_supersteps: int | None = None,
) -> ProtocolResult:
    """Topology-agnostic hash-to-min, as the MPC papers state it.

    One message per directed edge per superstep (no combiner), owners
    hashed uniformly regardless of placement or bandwidth, and a full
    label refresh back to subscribers every superstep.
    """
    driver, outputs, meta = _hash_to_min(
        tree,
        distribution,
        seed=seed,
        tag=tag,
        shuffle_protocol="uniform-hash",
        pre_aggregate=False,
        delta_return=False,
        local_closure=False,
        max_supersteps=max_supersteps,
    )
    return _finalize("uniform-hash-components", driver, outputs, meta)


@register_protocol(
    task="connected-components",
    name="gather",
    kind="baseline",
    description="Ship every edge to one node; union-find there",
)
def gather_connected_components(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    target: NodeId | None = None,
    tag: str = DEFAULT_EDGE_TAG,
) -> ProtocolResult:
    """One round: centralize the edge list, solve locally."""
    distribution.validate_for(tree)
    computes = tree.routing_index.compute_nodes
    if target is None:
        target = max(computes, key=lambda v: distribution.size(v, tag))
    driver = SuperstepDriver(tree)
    total_edges = distribution.total(tag)
    if total_edges:
        with driver.cluster_round(
            task="connected-components",
            protocol="gather-components",
            label="gather edges",
            input_size=total_edges,
        ) as ctx:
            cluster = driver.cluster
            gather_relation(
                ctx,
                cluster.compute_order,
                distribution,
                tag,
                cluster.artifacts.compute_position[target],
                recv_tag=_GATHER_RECV,
            )
    gathered = np.concatenate(
        [distribution.fragment(target, tag), driver.cluster.take(target, _GATHER_RECV)]
    )
    vertices, src_row, dst_row = _endpoint_rows(*decode_edges(gathered))
    roots = component_roots(src_row, dst_row, len(vertices))
    outputs: dict = {v: KeyValueArrays.empty() for v in computes}
    outputs[target] = KeyValueArrays(vertices, vertices[roots])
    meta = {
        "tag": tag,
        "target": target,
        "num_vertices": len(vertices),
        "num_edges": int(total_edges),
        "num_supersteps": 1 if total_edges else 0,
        "converged": True,
    }
    return _finalize("gather-components", driver, outputs, meta)


register_task(
    "connected-components",
    default_protocol="tree",
    verifier=_verify_components,
    lower_bound=components_lower_bound,
    lower_bound_opts=("tag",),
    bound_holds_per_instance=True,
    aliases=("cc", "components", "connectivity"),
)


# --------------------------------------------------------------------- #
# facade
# --------------------------------------------------------------------- #


def run_components(
    tree: TreeTopology,
    graph: "PlacedGraph | Distribution",
    *,
    protocol: str | None = None,
    seed: int = 0,
    placement: str = "custom",
    verify: bool = True,
    **opts,
) -> GraphRunReport:
    """Run connected components and report per-superstep costs.

    The iterative counterpart of :func:`repro.engine.run`: the flat
    engine report is expanded back into per-superstep rows (the
    protocol records them in its ``meta``) so convergence behaviour is
    visible round by round.
    """
    return _run_graph_task(
        "connected-components",
        tree,
        graph,
        protocol=protocol,
        seed=seed,
        placement=placement,
        verify=verify,
        **opts,
    )
