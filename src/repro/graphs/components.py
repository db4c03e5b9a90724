"""Topology-aware connected components via hash-to-min label propagation.

The MPC connectivity literature (Andoni et al. 2018, Behnezhad et al.
2019) solves connectivity by repeated shuffle/aggregate supersteps;
this module runs the classic *hash-to-min* label propagation on the
paper's cost model, each superstep's shuffle being one round of a
**registered** ``groupby-aggregate`` protocol (its owner hash and its
kernel's two halves, run on the driver's cluster) so the
topology-aware / topology-agnostic comparison is inherited from the
substrate:

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
  group-by), per-node combining before the shuffle (the local closure
  leaves one message per locally known vertex), and *delta* return
  legs (only changed labels travel back);
* ``uniform-hash`` — the textbook MPC baseline: uniform ownership, raw
  per-edge messages (no combiner, ``pre_aggregate=False``), and a full
  label refresh every superstep;
* ``gather`` — ship every edge to one node and run union-find there
  (one round; optimal when one node dominates).

Every superstep ships the same keys from the same holders, and every
return leg the labels of the same groups to the same subscribers; only
the labels change.  So a hash-to-min run lays out both legs once, as
cluster layouts (:class:`~repro.sim.layout.RoundLayout`): the shuffle
(:func:`~repro.queries.aggregate.shuffle_layout`, the owner hash and
the runs) and the return leg (one multicast run per owner and
subscriber set).  Their delivery indexes say what every superstep will
deliver: the keys the owners group, once per run, and the vertex-table
row of every label a return leg delivers — a gather, not a search.
Each superstep ships both legs along their layouts, a delta leg fewer
labels per run; arrivals other than the layout says are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.gather import gather_relation, target_position
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
from repro.obs.audit import get_auditor
from repro.obs.tracer import get_tracer
from repro.queries.aggregate import (
    GroupOutputs,
    groupby_column_bound,
    groupby_hasher,
    shuffle_layout,
    shuffle_round,
)
from repro.queries.tuples import decode_tuples, encode_tuples
from repro.registry import register_protocol, register_task
from repro.report import GraphRunReport
from repro.sim.layout import RoundLayout
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import NodeId, TreeTopology
from repro.util.components import component_roots
from repro.util.grouping import (
    concat_ranges,
    group_slices,
    owner_bounds,
    row_runs,
    sorted_runs,
    sorted_unique,
    unique_inverse,
    unique_rows,
    value_runs,
)

_GROUPBY = "groupby-aggregate"
#: the registered group-by protocols' receive tag, so a superstep's
#: shuffle is the same round as theirs in every per-tag metric
_SHUFFLE_RECV = "aggregate.recv"
_LABEL_RECV = "cc.labels.recv"
_GATHER_RECV = "cc.gather.recv"


# --------------------------------------------------------------------- #
# lower bound + verification
# --------------------------------------------------------------------- #


def _edge_components(distribution: Distribution):
    """The global edge list's sorted distinct endpoints, each edge's
    source row among them, and every endpoint's component root row."""
    vertices, src_row, dst_row = _endpoint_rows(
        *decode_edges(distribution.relation(DEFAULT_EDGE_TAG))
    )
    return vertices, src_row, component_roots(src_row, dst_row, len(vertices))


def components_lower_bound(
    tree: TreeTopology,
    distribution: Distribution,
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
    _, src_row, roots = _edge_components(distribution)
    return LowerBound.from_shared_keys(
        tree,
        column_holders(tree, distribution, DEFAULT_EDGE_TAG),
        # an edge lies in the component of its source endpoint
        roots[src_row],
        "per-link spanning-component counting (connectivity)",
    )


def _expect_components(
    tree: TreeTopology, distribution: Distribution, **opts
) -> tuple[np.ndarray, np.ndarray]:
    """Every non-isolated vertex, ascending, and its component's min.

    The expected labelling is :func:`component_roots` over the global
    edge list — the kernel the protocols use too, so this checks what
    they deliver and emit; the kernel itself is checked against the
    union-find oracle in tier-1 tests.
    """
    vertices, _, roots = _edge_components(distribution)
    return vertices, vertices[roots]


def _check_components(
    result: ProtocolResult, expected: tuple[np.ndarray, np.ndarray]
) -> None:
    """Each non-isolated vertex must appear once, with its component min."""
    vertices_expected, labels = expected
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
        np.array_equal(vertices, vertices_expected)
        and np.array_equal(owned.values_array[order], labels)
    ):
        raise ProtocolError(
            f"{result.protocol} produced a wrong labelling "
            f"({len(vertices)} vertices vs {len(vertices_expected)} expected)"
        )


# --------------------------------------------------------------------- #
# the superstep loop
# --------------------------------------------------------------------- #


def _endpoint_rows(src: np.ndarray, dst: np.ndarray):
    """Sorted distinct endpoints and each edge's two positions among them."""
    keys, rows = unique_inverse(np.concatenate([src, dst]))
    return keys, rows[: len(src)], rows[len(src) :]


def _row_keys(owner: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Vertex-table key of ``(owner index, vertex)``: packed like an edge."""
    return (owner.astype(np.int64) << np.int64(VERTEX_BITS)) | vertex


def _subscriber_subsets(row_owner: np.ndarray, row_vertex: np.ndarray) -> tuple:
    """The distinct vertices and their deduplicated subscriber sets:
    the vertex table read by vertex.

    Returns the vertices ascending, each one's subset id, the subsets
    as one CSR pair — subset ``s`` is ``members[offsets[s]:offsets[s +
    1]]``, the ascending compute-order indices of the nodes whose
    fragments touch the vertex — and the table rows grouped by vertex
    with each vertex's first: the ``j``-th member of a vertex's subset
    holds its row ``by_vertex[starts[vertex] + j]``.  One stable sort of
    the rows by vertex gives the vertices and every vertex's owner
    segment; segments of equal length are compared as the rows of one
    matrix, so memory stays O(table rows) however many nodes there are.
    """
    by_vertex, starts, lengths = value_runs(row_vertex)
    owners = row_owner[by_vertex]  # grouped by vertex, ascending within
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
    vertices = row_vertex[by_vertex[starts]]
    return vertices, subset_of, np.concatenate(members), offsets, by_vertex, starts


@dataclass(frozen=True)
class _Groups:
    """The groups a superstep's shuffle delivers, fixed per run: the
    keys its layout delivers (``arrived``) and their grouping per
    ``(owner, vertex)``, ``values[order]`` reduced at ``starts`` being
    every group's label.  Per group: its ``owner``, its ``vertex`` and
    that vertex's position among the run's distinct vertices.
    """

    arrived: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    vertex: np.ndarray
    position: np.ndarray

    @classmethod
    def of(cls, owners: np.ndarray, arrived: np.ndarray, all_vertices: np.ndarray):
        """Group the arrivals ``(owners, arrived)``: the owners'
        combine, its sort run once for the whole run."""
        order, starts, _ = sorted_runs(owners, arrived)
        first = order[starts]
        owner, vertex = owners[first], arrived[first]
        return cls(
            arrived, order, starts, owner, vertex, np.searchsorted(all_vertices, vertex)
        )


@dataclass(frozen=True)
class _ReturnLeg:
    """A run's label-return leg, laid out once.

    A run is an ``(owner, subscriber subset)`` pair, its Steiner
    destinations the subset with the owner masked out; a vertex whose
    only subscriber is its owner ships nothing (its run is empty).
    ``ships`` are the groups a full leg ships, in payload order; a delta
    leg ships the changed ones along the same runs.  Per label a full
    leg delivers, in the layout's delivery order: its group
    (``arrivals``) and the vertex-table row it updates (``rows``).  An
    owner that subscribes to its own vertex updates its row for free:
    ``own_groups`` at ``own_rows``.
    """

    layout: RoundLayout
    ships: np.ndarray
    arrivals: np.ndarray
    rows: np.ndarray
    own_groups: np.ndarray
    own_rows: np.ndarray

    @classmethod
    def of(cls, cluster, owned: _Groups, subset_of, subsets: tuple) -> "_ReturnLeg":
        subscribers, offsets, by_vertex, vertex_starts = subsets
        rows = np.column_stack((owned.owner, subset_of[owned.position]))
        order, starts, lengths = row_runs(rows)
        run_owner, run_subset = rows[order[starts]].T
        sizes = np.diff(offsets)[run_subset]
        # every run's subset, and each member's rank in it: the rank of
        # the vertex-table row it holds among the vertex's rows
        run_of = np.repeat(np.arange(len(starts)), sizes)
        index = concat_ranges(offsets[run_subset], sizes)
        rank = index - offsets[run_subset][run_of]
        away = subscribers[index] != run_owner[run_of]
        fanout = np.bincount(run_of[away], minlength=len(starts))
        layout = cluster.lay_out(
            run_owner,
            subscribers[index[away]],
            np.where(fanout > 0, lengths, 0),
            offsets=np.concatenate([[0], np.cumsum(fanout)]),
            tag=_LABEL_RECV,
        )
        positions, delivered = layout.delivery
        ships = order[np.repeat(fanout > 0, lengths)]
        arrivals = ships[positions]
        first_row = vertex_starts[owned.position]
        own_rank = np.full(len(starts), -1)
        own_rank[run_of[~away]] = rank[~away]
        group_rank = np.repeat(own_rank, lengths)
        own_groups = order[group_rank >= 0]
        return cls(
            layout,
            ships,
            arrivals,
            by_vertex[first_row[arrivals] + rank[away][layout.row_member[delivered]]],
            own_groups,
            by_vertex[first_row[own_groups] + group_rank[group_rank >= 0]],
        )


def _hash_to_min(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int,
    shuffle_protocol: str,
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
    closures coming from one :func:`component_roots` call.  The closure
    is then the combiner: it leaves one message per table row, already
    sorted by ``(owner, vertex)``, so the shuffle runs no sender-side
    combine.  Without it, proposals are the textbook single-hop
    messages, one per directed edge plus one identity message per row,
    shipped raw.

    Both legs are laid out once per run (see the module docstring), and
    so are the shuffle's bound, the owners' grouping (:class:`_Groups`)
    and the table rows the return leg updates (:class:`_ReturnLeg`).  A
    superstep whose arrivals differ from its layout's raises
    :class:`ProtocolError`.
    """
    tree.require_symmetric("connected components")
    distribution.validate_for(tree)
    driver = SuperstepDriver(tree)
    cluster = driver.cluster
    computes = cluster.compute_order
    base_meta = {
        "tag": DEFAULT_EDGE_TAG,
        "payload_bits": VERTEX_BITS,
        "num_edges": distribution.total(DEFAULT_EDGE_TAG),
    }
    fragments = [distribution.fragment(v, DEFAULT_EDGE_TAG) for v in computes]
    sizes = np.fromiter(map(len, fragments), np.int64, len(computes))
    if not sizes.any():
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
    message_sizes = np.diff(message_offsets)

    # Return legs group label updates by *subscriber set* (the owners
    # whose fragments touch the vertex); many vertices share one.
    all_vertices, subset_of, *subsets = _subscriber_subsets(row_owner, row_vertex)
    prev_labels = all_vertices.copy()  # identity is globally known
    if max_supersteps is None:
        max_supersteps = len(all_vertices) + 2

    tracer = get_tracer()
    auditor = get_auditor()
    shuffle_name = f"{shuffle_protocol}-groupby"
    shuffle = shuffle_layout(
        cluster,
        np.repeat(np.arange(len(computes)), message_sizes),
        message_keys,
        groupby_hasher(shuffle_protocol, computes, message_sizes, seed),
        recv_tag=_SHUFFLE_RECV,
    )
    order, layout = shuffle
    positions, rows = layout.delivery
    owned = _Groups.of(
        layout.row_destination[rows], message_keys[order[positions]], all_vertices
    )
    if len(owned.vertex) != len(all_vertices):
        raise ProtocolError(
            f"{shuffle_name} emitted {len(owned.vertex)} of "
            f"{len(all_vertices)} groups"
        )
    leg = _ReturnLeg.of(cluster, owned, subset_of, subsets)
    with tracer.span("groupby bound", category="bound", task=_GROUPBY):
        bound = groupby_column_bound(tree, message_sizes, message_keys)
    op_meta = {
        "op": "min",
        "pre_aggregate": local_closure,  # the closure is the combiner
        "payload_bits": VERTEX_BITS,
    }
    step_meta = {"result": op_meta, "bound": bound.description}

    converged = False
    for step in range(1, max_supersteps + 1):
        if local_closure:
            proposals = np.empty_like(labels)
            proposals[by_component] = np.repeat(
                np.minimum.reduceat(labels[by_component], component_starts),
                component_sizes,
            )
        else:
            proposals = labels[message_rows]
        # the nodes hold their messages as relation R while the round runs
        messages = encode_tuples(message_keys, proposals, payload_bits=VERTEX_BITS)
        cluster.load_column("R", messages, message_offsets)
        with driver.step(
            task=_GROUPBY,
            protocol=shuffle_name,
            label=f"superstep {step} shuffle",
            phase="protocol",
            input_size=len(message_keys),
            lower_bound=bound.value,
            meta=step_meta,
        ):
            _, received = shuffle_round(cluster, shuffle, messages)
            arrived, values = decode_tuples(received, payload_bits=VERTEX_BITS)
            with tracer.span("groupby verify", category="verify", task=_GROUPBY):
                if not np.array_equal(arrived, owned.arrived):
                    raise ProtocolError(
                        f"superstep {step} of {shuffle_name} delivered other "
                        "keys than its layout says; the owners' grouping is "
                        "fixed per run"
                    )
            out_labels = np.minimum.reduceat(values[owned.order], owned.starts)
            auditor.check_bound(
                cost=driver.ledger.round_cost(-1),
                bound=bound.value,
                task=_GROUPBY,
                protocol=shuffle_name,
                per_instance=False,
            )
        changed = out_labels != prev_labels[owned.position]
        if not changed.any():
            converged = True
            break
        prev_labels[owned.position] = out_labels
        # One shipment per leg along the run's return layout: a full
        # refresh ships every label, a delta leg the changed ones.
        ships, counts = leg.ships, None
        arrivals, rows = leg.arrivals, leg.rows
        if delta_return:
            sent = changed[ships]
            shipped = np.concatenate([[0], np.cumsum(sent)])
            counts = np.diff(shipped[np.concatenate([[0], np.cumsum(leg.layout.counts)])])
            ships = ships[sent]
            delivered = changed[arrivals]
            arrivals, rows = arrivals[delivered], rows[delivered]
        with driver.cluster_round(
            task="connected-components",
            protocol="label-return",
            label=f"superstep {step} return",
            input_size=len(ships),
        ) as ctx:
            ctx.exchange_layout(
                leg.layout,
                encode_tuples(
                    owned.vertex[ships], out_labels[ships], payload_bits=VERTEX_BITS
                ),
                counts,
            )
        _, received = cluster.take_column(_LABEL_RECV)
        got_vertices, got_labels = decode_tuples(received, payload_bits=VERTEX_BITS)
        # the layout says which vertex every delivered label is for, and
        # so which table row it updates
        if not np.array_equal(got_vertices, owned.vertex[arrivals]):
            raise ProtocolError(
                f"superstep {step} return delivered other labels than its "
                "layout says"
            )
        # An owner that also holds edges of a vertex updates its own row
        # for free (an unchanged label is already there); subscribers
        # update from what the leg delivered.
        mine = changed[leg.own_groups]
        labels[leg.own_rows[mine]] = out_labels[leg.own_groups[mine]]
        labels[rows] = got_labels
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
    return driver, GroupOutputs(
        computes, owner_bounds(owned.owner, len(computes)), owned.vertex, out_labels
    ), meta


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
        shuffle_protocol="tree",
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
        shuffle_protocol="uniform-hash",
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
) -> ProtocolResult:
    """One round: centralize the edge list, solve locally."""
    distribution.validate_for(tree)
    computes = tree.compute_nodes
    if target is None:
        target = max(
            computes, key=lambda v: distribution.size(v, DEFAULT_EDGE_TAG)
        )
    driver = SuperstepDriver(tree)
    total_edges = distribution.total(DEFAULT_EDGE_TAG)
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
                DEFAULT_EDGE_TAG,
                target_position(tree, target),
                recv_tag=_GATHER_RECV,
            )
    gathered = np.concatenate(
        [
            distribution.fragment(target, DEFAULT_EDGE_TAG),
            driver.cluster.take(target, _GATHER_RECV),
        ]
    )
    vertices, src_row, dst_row = _endpoint_rows(*decode_edges(gathered))
    roots = component_roots(src_row, dst_row, len(vertices))
    outputs: dict = {v: KeyValueArrays.empty() for v in computes}
    outputs[target] = KeyValueArrays(vertices, vertices[roots])
    meta = {
        "tag": DEFAULT_EDGE_TAG,
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
    expect=_expect_components,
    check=_check_components,
    lower_bound=components_lower_bound,
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
        **opts,
    )
