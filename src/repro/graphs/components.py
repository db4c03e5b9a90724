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

from repro.core.common import LowerBound
from repro.data.columns import KeyValueArrays
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.graphs.iterate import SuperstepDriver
from repro.graphs.model import (
    DEFAULT_EDGE_TAG,
    VERTEX_BITS,
    PlacedGraph,
    decode_edges,
)
from repro.graphs.reference import reference_components
from repro.queries.tuples import decode_tuples, encode_tuples
from repro.registry import register_protocol, register_task
from repro.report import GraphRunReport, RunReport
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import NodeId, TreeTopology, node_sort_key

_LABEL_RECV = "cc.labels.recv"
_GATHER_RECV = "cc.gather.recv"


# --------------------------------------------------------------------- #
# lower bound + verification
# --------------------------------------------------------------------- #


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
    nodes = list(tree.compute_nodes)
    fragments = [distribution.fragment(v, tag) for v in nodes]
    src, dst = decode_edges(np.concatenate(fragments))
    component_of = reference_components(np.stack([src, dst], axis=1))
    # an edge lies in the component of its source endpoint
    labels = np.fromiter(
        (component_of[u] for u in src.tolist()), np.int64, len(src)
    )
    bounds = np.cumsum([len(f) for f in fragments])[:-1]
    return LowerBound.from_shared_keys(
        tree,
        dict(zip(nodes, np.split(labels, bounds))),
        "per-link spanning-component counting (connectivity)",
    )


def _verify_components(
    tree: TreeTopology, distribution: Distribution, result: ProtocolResult
) -> None:
    """Each non-isolated vertex must appear once, with its component min."""
    tag = result.meta.get("tag", DEFAULT_EDGE_TAG)
    fragment_list = [
        distribution.fragment(v, tag)
        for v in sorted(distribution.nodes, key=node_sort_key)
    ]
    fragment_list = [f for f in fragment_list if len(f)]
    if fragment_list:
        src, dst = decode_edges(np.concatenate(fragment_list))
        expected = reference_components(np.stack([src, dst], axis=1))
    else:
        expected = {}
    found: dict = {}
    for node, labels in result.outputs.items():
        for vertex, label in labels.items():
            if vertex in found:
                raise ProtocolError(
                    f"{result.protocol} emitted vertex {vertex} at two nodes"
                )
            found[int(vertex)] = int(label)
    if found != expected:
        raise ProtocolError(
            f"{result.protocol} produced a wrong labelling "
            f"({len(found)} vertices vs {len(expected)} expected)"
        )


# --------------------------------------------------------------------- #
# the superstep loop
# --------------------------------------------------------------------- #


class _LocalView:
    """One node's static edge fragment expanded for propagation.

    With ``closure=True`` the view pre-computes its fragment's *local*
    connected components (free computation in the model) and each
    superstep proposes, for every vertex, the minimum label over the
    vertex's local component — the local-contraction optimization of
    the MPC connectivity literature.  Without it, proposals are the
    textbook single-hop hash-to-min messages, one per directed edge.
    """

    def __init__(self, fragment: np.ndarray, *, closure: bool) -> None:
        lo, hi = decode_edges(fragment)
        self.src = np.concatenate([lo, hi])
        self.dst = np.concatenate([hi, lo])
        self.verts = np.unique(self.src)  # sorted endpoints
        self.labels = self.verts.copy()  # hash-to-min starts at identity
        self.src_pos = np.searchsorted(self.verts, self.src)
        self.closure = closure
        if closure:
            roots = reference_components(np.stack([lo, hi], axis=1))
            root_array = np.asarray(
                [roots[int(v)] for v in self.verts], dtype=np.int64
            )
            _, self._comp_of = np.unique(root_array, return_inverse=True)
            self._comp_order = np.argsort(self._comp_of, kind="stable")
            grouped = self._comp_of[self._comp_order]
            self._comp_starts = np.concatenate(
                [[0], np.flatnonzero(np.diff(grouped)) + 1]
            )

    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """This superstep's ``(vertex, proposed label)`` messages."""
        if self.closure:
            component_min = np.minimum.reduceat(
                self.labels[self._comp_order], self._comp_starts
            )
            return self.verts, component_min[self._comp_of]
        keys = np.concatenate([self.dst, self.verts])
        values = np.concatenate([self.labels[self.src_pos], self.labels])
        return keys, values

    def update(self, vertices: np.ndarray, labels: np.ndarray) -> None:
        positions = np.searchsorted(self.verts, vertices)
        inside = (positions < len(self.verts)) & (
            self.verts[np.minimum(positions, len(self.verts) - 1)] == vertices
        )
        self.labels[positions[inside]] = labels[inside]


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
    bits_per_element: int,
) -> tuple[SuperstepDriver, dict, dict]:
    """Shared superstep loop; flavours differ only in the knobs above."""
    tree.require_symmetric("connected components")
    distribution.validate_for(tree)
    computes = sorted(tree.compute_nodes, key=node_sort_key)
    views = {
        v: _LocalView(distribution.fragment(v, tag), closure=local_closure)
        for v in computes
        if distribution.size(v, tag)
    }
    driver = SuperstepDriver(tree, bits_per_element=bits_per_element)
    base_meta = {
        "tag": tag,
        "payload_bits": VERTEX_BITS,
        "num_edges": distribution.total(tag),
    }
    if not views:
        outputs: dict = {v: KeyValueArrays.empty() for v in computes}
        return driver, outputs, dict(
            base_meta, num_vertices=0, num_supersteps=0, converged=True
        )

    subscribers: dict[int, set] = {}
    for node, view in views.items():
        for vertex in view.verts.tolist():
            subscribers.setdefault(vertex, set()).add(node)
    all_vertices = sorted(subscribers)
    vert_arr = np.asarray(all_vertices, dtype=np.int64)
    # Return legs group label updates by *subscriber set*: deduplicate
    # the sets once (many vertices share one), so each superstep only
    # touches arrays — a subset id per vertex, per-node membership flags
    # per subset — instead of per-vertex Python set algebra.
    subset_ids: dict[frozenset, int] = {}
    vertex_subset = np.empty(len(vert_arr), dtype=np.intp)
    for i, vertex in enumerate(all_vertices):
        key = frozenset(subscribers[vertex])
        vertex_subset[i] = subset_ids.setdefault(key, len(subset_ids))
    subset_members = list(subset_ids)  # subset id -> frozenset of nodes
    is_member = {
        node: np.asarray(
            [node in members for members in subset_members], dtype=bool
        )
        for node in views
    }
    prev_labels = vert_arr.copy()  # identity is globally known
    if max_supersteps is None:
        max_supersteps = len(all_vertices) + 2

    converged = False
    owner_outputs: dict = {}
    for step in range(1, max_supersteps + 1):
        placements = {}
        for node, view in views.items():
            keys, values = view.candidates()
            placements[node] = {
                "R": encode_tuples(keys, values, payload_bits=VERTEX_BITS)
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
            bits_per_element=bits_per_element,
        )
        owner_outputs = result.outputs
        # Read each owner's output columns directly: vertex and label
        # arrays, their positions in the global vertex order, and which
        # labels actually changed this superstep.  Group-by protocols
        # emit :class:`KeyValueArrays`, so the columns are zero-copy;
        # plain dicts (third-party shuffles) fall back to fromiter.
        per_owner = []
        num_changed = 0
        for node in sorted(owner_outputs, key=node_sort_key):
            groups = owner_outputs[node]
            if not groups:
                continue
            keys_column = getattr(groups, "keys_array", None)
            if keys_column is not None:
                verts = keys_column
                labels = groups.values_array
            else:
                verts = np.fromiter(groups.keys(), np.int64, len(groups))
                labels = np.fromiter(groups.values(), np.int64, len(groups))
            positions = np.searchsorted(vert_arr, verts)
            changed_mask = labels != prev_labels[positions]
            num_changed += int(changed_mask.sum())
            per_owner.append((node, verts, labels, positions, changed_mask))
        if num_changed == 0:
            converged = True
            break
        sent_pairs = 0
        with driver.cluster_round(
            task="connected-components",
            protocol="label-return",
            label=f"superstep {step} return",
        ) as ctx:
            for node, verts, labels, positions, changed_mask in per_owner:
                if delta_return:
                    verts_out = verts[changed_mask]
                    labels_out = labels[changed_mask]
                    pos_out = positions[changed_mask]
                else:
                    verts_out, labels_out, pos_out = verts, labels, positions
                if not len(verts_out):
                    continue
                subset_of = vertex_subset[pos_out]
                member_mask = is_member.get(node)
                if member_mask is not None:
                    # The owner also holds edges of some of these
                    # vertices: its local view updates for free.
                    own = member_mask[subset_of]
                    if own.any():
                        views[node].update(verts_out[own], labels_out[own])
                # Batched subscriber-subset return: one Steiner
                # destination set per subset present (its subscribers
                # minus the sender; vertices whose only subscriber is
                # the sender ship nothing), one exchange_multicast for
                # all subsets together.
                used, group_ids = np.unique(subset_of, return_inverse=True)
                destination_sets = [
                    subset_members[sid] - {node} for sid in used.tolist()
                ]
                nonempty = np.asarray(
                    [bool(dsts) for dsts in destination_sets], dtype=bool
                )
                mask = nonempty[group_ids]
                if not mask.any():
                    continue
                ctx.exchange_multicast(
                    node,
                    group_ids[mask],
                    destination_sets,
                    encode_tuples(
                        verts_out[mask],
                        labels_out[mask],
                        payload_bits=VERTEX_BITS,
                    ),
                    tag=_LABEL_RECV,
                )
                sent_pairs += int(mask.sum())
        driver.set_last_input_size(sent_pairs)
        for node, view in views.items():
            received = driver.cluster.take(node, _LABEL_RECV)
            if len(received):
                vertices, labels = decode_tuples(
                    received, payload_bits=VERTEX_BITS
                )
                view.update(vertices, labels)
        for _, verts, labels, positions, _ in per_owner:
            prev_labels[positions] = labels
    if not converged:
        raise ProtocolError(
            f"hash-to-min did not converge within {max_supersteps} supersteps"
        )
    outputs = {
        node: (
            groups
            if isinstance(groups, KeyValueArrays)
            else KeyValueArrays.from_dict(groups)
        )
        for node, groups in owner_outputs.items()
    }
    for node in computes:
        outputs.setdefault(node, KeyValueArrays.empty())
    meta = dict(
        base_meta,
        num_vertices=len(all_vertices),
        num_supersteps=step,
        converged=True,
    )
    return driver, outputs, meta


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
    bits_per_element: int = 64,
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
        bits_per_element=bits_per_element,
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
    bits_per_element: int = 64,
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
        bits_per_element=bits_per_element,
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
    bits_per_element: int = 64,
) -> ProtocolResult:
    """One round: centralize the edge list, solve locally."""
    distribution.validate_for(tree)
    computes = sorted(tree.compute_nodes, key=node_sort_key)
    if target is None:
        target = max(computes, key=lambda v: distribution.size(v, tag))
    driver = SuperstepDriver(tree, bits_per_element=bits_per_element)
    total_edges = distribution.total(tag)
    if total_edges:
        with driver.cluster_round(
            task="connected-components",
            protocol="gather-components",
            label="gather edges",
            input_size=total_edges,
        ) as ctx:
            for node in computes:
                if node == target:
                    continue
                fragment = distribution.fragment(node, tag)
                if len(fragment):
                    ctx.send(node, target, fragment, tag=_GATHER_RECV)
    gathered = np.concatenate(
        [distribution.fragment(target, tag), driver.cluster.take(target, _GATHER_RECV)]
    )
    src, dst = decode_edges(gathered)
    labelling = (
        reference_components(np.stack([src, dst], axis=1)) if len(src) else {}
    )
    outputs: dict = {v: KeyValueArrays.empty() for v in computes}
    outputs[target] = KeyValueArrays.from_dict(labelling)
    meta = {
        "tag": tag,
        "target": target,
        "num_vertices": len(labelling),
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
    from repro.engine import run_with_result

    distribution = (
        graph.distribution if isinstance(graph, PlacedGraph) else graph
    )
    report, result = run_with_result(
        "connected-components",
        tree,
        distribution,
        protocol=protocol,
        seed=seed,
        placement=placement,
        verify=verify,
        **opts,
    )
    meta = dict(result.meta)
    steps = tuple(
        RunReport.from_dict(payload) for payload in meta.pop("supersteps", [])
    )
    return GraphRunReport(
        task=report.task,
        protocol=report.protocol,
        topology=report.topology,
        placement=placement,
        num_vertices=int(meta.get("num_vertices", 0)),
        num_edges=int(meta.get("num_edges", 0)),
        supersteps=steps,
        lower_bound=report.lower_bound,
        converged=bool(meta.get("converged", False)),
        meta=meta,
        wall_time_s=report.wall_time_s,
    )
