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

Every superstep ships the same keys from the same holders; only the
labels in the payload change.  So a hash-to-min run lays out its
shuffle once (:func:`~repro.queries.aggregate.shuffle_layout`: the
owner hash and the runs), computes the group-by bound once, and groups
the owners' arrivals once, on the first superstep; each superstep
installs its messages as relation ``R`` and is one
:func:`~repro.queries.aggregate.shuffle_round` along that layout.
Arrivals that differ from the first superstep's are refused.
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


def _table_rows(
    table: np.ndarray, owner: np.ndarray, vertex: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which ``(owner, vertex)`` pairs hold a row of the vertex table:
    their positions among the pairs, and those rows."""
    keys = _row_keys(owner, vertex)
    rows = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    held = np.flatnonzero(table[rows] == keys)
    return held, rows[held]


def _subscriber_subsets(
    row_owner: np.ndarray, row_vertex: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct vertices and their deduplicated subscriber sets:
    the vertex table read by vertex.

    Returns the vertices ascending, each one's subset id and the
    subsets as one CSR pair: subset ``s`` is
    ``members[offsets[s]:offsets[s + 1]]``, the ascending compute-order
    indices of the nodes whose fragments touch the vertex.  One stable
    sort of the rows by vertex gives the vertices and every vertex's
    owner segment; segments of equal length are compared as the rows of
    one matrix, so memory stays O(table rows) however many nodes there
    are.
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
    return vertices, subset_of, np.concatenate(members), offsets


@dataclass(frozen=True)
class _Groups:
    """The groups a superstep's shuffle delivers, fixed per run.

    Every superstep ships the same keys along the same layout, so the
    arrivals' keys (``arrived``) and their grouping per ``(owner,
    vertex)`` are the first superstep's: ``values[order]`` reduced at
    ``starts`` is every group's label.  Per group: its ``owner``, its
    ``vertex`` and that vertex's position among the run's distinct
    vertices (``position``); ``own_groups`` are the groups whose owner
    holds a row of the vertex table for the vertex, at ``own_rows``.
    """

    arrived: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    vertex: np.ndarray
    position: np.ndarray
    own_groups: np.ndarray
    own_rows: np.ndarray

    @classmethod
    def of(
        cls,
        owners: np.ndarray,
        arrived: np.ndarray,
        all_vertices: np.ndarray,
        table: np.ndarray,
    ) -> "_Groups":
        """Group the arrivals ``(owners, arrived)``: the owners'
        combine, its sort run once for the whole run."""
        order, starts, _ = sorted_runs(owners, arrived)
        first = order[starts]
        owner, vertex = owners[first], arrived[first]
        return cls(
            arrived,
            order,
            starts,
            owner,
            vertex,
            np.searchsorted(all_vertices, vertex),
            *_table_rows(table, owner, vertex),
        )


def _label_runs(
    group_owner: np.ndarray,
    group_subset: np.ndarray,
    subscribers: np.ndarray,
    subscriber_offsets: np.ndarray,
) -> tuple:
    """The multicast runs of a label-return leg shipping every group.

    A run is an ``(owner, subscriber subset)`` pair, its Steiner
    destinations the subset with the owner masked out; a vertex whose
    only subscriber is its owner ships nothing (its run is empty).
    Returns ``(run_owner, destinations, counts, ships)``: what
    :meth:`~repro.sim.cluster.RoundContext.exchange_multicast_runs`
    takes, ``ships`` being the groups whose labels travel, in run order.
    A leg shipping fewer groups keeps the runs and their order and
    ships fewer labels per run.
    """
    rows = np.column_stack((group_owner, group_subset))
    order, starts, lengths = row_runs(rows)
    run_owner, run_subset = rows[order[starts]].T
    sizes = np.diff(subscriber_offsets)[run_subset]
    members = subscribers[concat_ranges(subscriber_offsets[run_subset], sizes)]
    run_of = np.repeat(np.arange(len(starts)), sizes)
    away = members != run_owner[run_of]
    fanout = np.bincount(run_of[away], minlength=len(starts))
    live = fanout > 0
    destinations = (members[away], np.concatenate([[0], np.cumsum(fanout)]))
    ships = order[np.repeat(live, lengths)]
    return run_owner, destinations, np.where(live, lengths, 0), ships


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

    Every superstep ships the same keys from the same holders; only
    the labels in the payload change.  So the shuffle's layout (owner
    hash and runs), its bound and, once the first superstep's messages
    arrive, their grouping at the owners (:class:`_Groups`) are computed
    once per run, and so are the return legs' runs (a delta leg ships
    fewer labels along them).  A later superstep whose arrivals differ
    from the first's raises :class:`ProtocolError`.
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
    all_vertices, subset_of, subscribers, subscriber_offsets = (
        _subscriber_subsets(row_owner, row_vertex)
    )
    prev_labels = all_vertices.copy()  # identity is globally known
    if max_supersteps is None:
        max_supersteps = len(all_vertices) + 2

    tracer = get_tracer()
    auditor = get_auditor()
    shuffle = f"{shuffle_protocol}-groupby"
    layout = shuffle_layout(
        np.repeat(np.arange(len(computes)), message_sizes),
        message_keys,
        groupby_hasher(shuffle_protocol, computes, message_sizes, seed),
    )
    with tracer.span("groupby bound", category="bound", task=_GROUPBY):
        bound = groupby_column_bound(tree, message_sizes, message_keys)
    op_meta = {
        "op": "min",
        "pre_aggregate": local_closure,  # the closure is the combiner
        "payload_bits": VERTEX_BITS,
    }
    step_meta = {"result": op_meta, "bound": bound.description}

    converged = False
    owned: _Groups | None = None  # fixed by the first superstep's arrivals
    leg = None  # the return legs' runs, fixed with them
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
            protocol=shuffle,
            label=f"superstep {step} shuffle",
            phase="protocol",
            input_size=len(message_keys),
            lower_bound=bound.value,
            meta=step_meta,
        ):
            owners, received = shuffle_round(
                cluster, layout, messages, recv_tag=_SHUFFLE_RECV
            )
            arrived, values = decode_tuples(received, payload_bits=VERTEX_BITS)
            if owned is None:
                owned = _Groups.of(owners, arrived, all_vertices, table)
            with tracer.span("groupby verify", category="verify", task=_GROUPBY):
                # every vertex some fragment touches is one group, and
                # the grouping fixed by the first superstep still holds
                if len(owned.vertex) != len(all_vertices):
                    raise ProtocolError(
                        f"{shuffle} emitted {len(owned.vertex)} of "
                        f"{len(all_vertices)} groups"
                    )
                if not np.array_equal(arrived, owned.arrived):
                    raise ProtocolError(
                        f"superstep {step} of {shuffle} delivered other keys "
                        "than the first superstep; the owners' grouping is "
                        "fixed per run"
                    )
            out_labels = np.minimum.reduceat(values[owned.order], owned.starts)
            auditor.check_bound(
                cost=driver.ledger.round_cost(-1),
                bound=bound.value,
                task=_GROUPBY,
                protocol=shuffle,
                per_instance=False,
            )
        changed = out_labels != prev_labels[owned.position]
        if not changed.any():
            converged = True
            break
        prev_labels[owned.position] = out_labels
        # One registration per leg, along runs fixed per run: a full
        # refresh ships every label, a delta leg the changed ones.
        if leg is None:
            leg = _label_runs(
                owned.owner,
                subset_of[owned.position],
                subscribers,
                subscriber_offsets,
            )
        run_owner, destinations, counts, ships = leg
        if delta_return:
            sent = changed[ships]
            shipped = np.concatenate([[0], np.cumsum(sent)])
            counts = np.diff(shipped[np.concatenate([[0], np.cumsum(counts)])])
            ships = ships[sent]
        with driver.cluster_round(
            task="connected-components",
            protocol="label-return",
            label=f"superstep {step} return",
            input_size=len(ships),
        ) as ctx:
            ctx.exchange_multicast_runs(
                run_owner,
                destinations,
                counts,
                encode_tuples(
                    owned.vertex[ships],
                    out_labels[ships],
                    payload_bits=VERTEX_BITS,
                ),
                tag=_LABEL_RECV,
            )
        got_owner, received = cluster.take_column(_LABEL_RECV)
        got_vertices, got_labels = decode_tuples(
            received, payload_bits=VERTEX_BITS
        )
        # An owner that also holds edges of a vertex updates its own row
        # for free (an unchanged label is already there); subscribers
        # update from what the leg delivered.
        mine = changed[owned.own_groups]
        labels[owned.own_rows[mine]] = out_labels[owned.own_groups[mine]]
        held, rows = _table_rows(table, got_owner, got_vertices)
        labels[rows] = got_labels[held]
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
