"""Hash-to-min one node at a time: the reference superstep driver.

This is the body ``repro.graphs.components._hash_to_min`` had before it
became relation-at-a-time, kept verbatim: one ``_LocalView`` per node
(its local closure computed by the union-find oracle), per-vertex
subscriber ``set``s deduplicated through ``frozenset`` keys, and one
``exchange_multicast_column`` registration per owner per return leg.  It is
slow and obviously right, which is what a reference is for.
:func:`reference_model` swaps it in under the registered protocols, so
a whole ``connected-components`` run can be replayed the old way and
compared superstep by superstep with what the vertex table produces.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.data.columns import KeyValueArrays
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.graphs import components
from repro.graphs.iterate import SuperstepDriver
from repro.graphs.model import VERTEX_BITS, decode_edges
from repro.graphs.reference import reference_components
from repro.queries.tuples import decode_tuples, encode_tuples
from repro.topology.tree import TreeTopology, node_sort_key

_LABEL_RECV = "cc.labels.recv"


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
        sends = []
        position = driver.cluster.artifacts.compute_position
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
            # the sender ship nothing), one exchange_multicast_column
            # for all subsets together.
            used, group_ids = np.unique(subset_of, return_inverse=True)
            destination_sets = [
                sorted(map(position.__getitem__, subset_members[sid] - {node}))
                for sid in used.tolist()
            ]
            nonempty = np.asarray(
                [bool(dsts) for dsts in destination_sets], dtype=bool
            )
            mask = nonempty[group_ids]
            if not mask.any():
                continue
            sends.append(
                (
                    [position[node]] * len(destination_sets),
                    group_ids[mask],
                    (
                        sum(destination_sets, []),
                        np.cumsum([0, *map(len, destination_sets)]),
                    ),
                    encode_tuples(
                        verts_out[mask],
                        labels_out[mask],
                        payload_bits=VERTEX_BITS,
                    ),
                )
            )
            sent_pairs += int(mask.sum())
        # the round's size is known before it opens: every send is built
        with driver.cluster_round(
            task="connected-components",
            protocol="label-return",
            label=f"superstep {step} return",
            input_size=sent_pairs,
        ) as ctx:
            for send in sends:
                ctx.exchange_multicast_column(*send, tag=_LABEL_RECV)
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


@contextmanager
def reference_model():
    """Run the enclosed connected-components protocols on the per-node loop."""
    production = components._hash_to_min
    components._hash_to_min = _hash_to_min
    try:
        yield
    finally:
        components._hash_to_min = production
