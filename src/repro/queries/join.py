"""Distribution-aware equi-join on symmetric trees.

The natural join ``R ⋈ S`` generalizes set intersection: instead of
emitting common *values*, every pair of tuples agreeing on the key must
be emitted.  The single-round strategy of Algorithm 2 carries over
unchanged — and so does its per-link budget analysis, because the
communication pattern only depends on tuple counts, not payloads:

* compute the balanced partition of the compute nodes (Definition 1);
* replicate every ``R``-tuple to one hashed owner per block (multicast,
  one copy per link);
* hash every ``S``-tuple within its own block;
* join locally; block ``i`` produces ``R ⋈ (S restricted to block i)``
  and the blocks partition ``S``.

Tuples are (key, payload) pairs packed by
:mod:`repro.queries.tuples`; hashing is by key, so duplicate keys are
fully supported on both sides.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.intersection.lower_bound import intersection_lower_bound
from repro.core.intersection.tree import hashed_partition_round
from repro.core.common import LowerBound
from repro.data.columns import NodeOutputs
from repro.data.distribution import Distribution
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples
from repro.registry import register_protocol
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology
from repro.util.grouping import concat_ranges, owner_bounds, sorted_runs

_R_RECV = "join.R.recv"
_S_RECV = "join.S.recv"


def equijoin_lower_bound(
    tree: TreeTopology,
    distribution: Distribution,
) -> LowerBound:
    """A valid equi-join lower bound via Theorem 1.

    Set intersection is the special case of the equi-join with distinct
    keys and empty payloads, so any join protocol solves the embedded
    lopsided set-disjointness instances and inherits the Theorem 1
    bound on the tuple counts.  (Output-size-sensitive bounds for skewed
    keys are future work, as in the paper.)
    """
    bound = intersection_lower_bound(tree, distribution)
    return LowerBound(
        value=bound.value,
        bottleneck_edge=bound.bottleneck_edge,
        per_edge=bound.per_edge,
        description="Theorem 1 applied to the equi-join",
    )


class JoinOutputs(NodeOutputs):
    """Per-node join results over the whole join's arrays.

    ``pair_bounds`` / ``run_bounds`` (``len(nodes) + 1`` ints) say which
    stretch of the joined rows, and of the joined key runs, each node
    produced; ``pairs`` is every node's ``(key, r_payload, s_payload)``
    rows end to end, ``None`` when the join only counted.
    ``outputs[node]`` is the classic ``{"num_pairs", "num_keys"[,
    "pairs"]}`` dict, built on demand.
    """

    def __init__(
        self,
        nodes: Sequence,
        pair_bounds: list,
        run_bounds: list,
        pairs: np.ndarray | None,
    ) -> None:
        super().__init__(nodes)
        self.pair_bounds = pair_bounds
        self.run_bounds = run_bounds
        self.pairs = pairs

    def _item(self, index: int) -> dict:
        lo, hi = self.pair_bounds[index : index + 2]
        run_lo, run_hi = self.run_bounds[index : index + 2]
        result = {"num_pairs": hi - lo, "num_keys": run_hi - run_lo}
        if self.pairs is not None:
            result["pairs"] = self.pairs[lo:hi]
        return result

    @classmethod
    def of(cls, outputs) -> "JoinOutputs":
        """``outputs`` in this form: what the registered join protocols
        return; a plain ``{node: {"num_pairs", ...}}`` is converted here,
        once (its rows are not carried over)."""
        if isinstance(outputs, JoinOutputs):
            return outputs
        counts = [(o["num_pairs"], o.get("num_keys", 0)) for o in outputs.values()]
        pair_bounds, run_bounds = np.cumsum([(0, 0), *counts], axis=0).T.tolist()
        return cls(tuple(outputs), pair_bounds, run_bounds, None)


def join_columns(
    r_column: tuple[np.ndarray, np.ndarray],
    s_column: tuple[np.ndarray, np.ndarray],
    nodes: Sequence,
    *,
    payload_bits: int,
    materialize: bool,
) -> JoinOutputs:
    """Join two encoded columns on the key component, node by node.

    Each side is a :meth:`Cluster.column <repro.sim.cluster.Cluster.column>`
    pair over ``nodes``; the result maps every node to its
    ``{"num_pairs", "num_keys"}`` and, with ``materialize=True``, its
    joined ``(key, r_payload, s_payload)`` rows under ``"pairs"`` — key
    ascending, then r-major with both sides in arrival order — and
    carries the arrays behind them (:class:`JoinOutputs`).  One
    stable sort of both columns together by ``(node, key)`` puts each
    run's ``R`` tuples ahead of its ``S`` tuples; a run joins when it
    has both.
    """
    keys, payloads = decode_tuples(
        np.concatenate((r_column[1], s_column[1])), payload_bits=payload_bits
    )
    owners = np.concatenate((r_column[0], s_column[0]))
    order, starts, lengths = sorted_runs(owners, keys, stable=True)
    s_counts = np.add.reduceat(order >= len(r_column[0]), starts, dtype=np.intp)
    r_counts = lengths - s_counts
    joined = np.flatnonzero((r_counts > 0) & (s_counts > 0))
    starts, r_counts, s_counts = starts[joined], r_counts[joined], s_counts[joined]
    run_bounds = owner_bounds(owners[order[starts]], len(nodes))
    pairs_before = np.concatenate(([0], np.cumsum(r_counts * s_counts)))
    pair_bounds = pairs_before[run_bounds].tolist()
    pairs = None
    if materialize:
        # one block of rows per R tuple of a joined run: the tuple
        # against every S tuple of the run
        left = concat_ranges(starts, r_counts)
        width = np.repeat(s_counts, r_counts)
        right = concat_ranges(np.repeat(starts + r_counts, r_counts), width)
        left = order[np.repeat(left, width)]
        pairs = np.stack(
            [keys[left], payloads[left], payloads[order[right]]], axis=1
        )
    return JoinOutputs(nodes, pair_bounds, run_bounds, pairs)


def local_join(
    r_tuples: np.ndarray,
    s_tuples: np.ndarray,
    *,
    payload_bits: int,
    materialize: bool,
) -> dict:
    """Join two encoded fragments on the key component.

    The one-node case of :func:`join_columns`, for protocols that join
    at a single target (the gather baseline).
    """
    return join_columns(
        (np.zeros(len(r_tuples), np.int16), r_tuples),
        (np.zeros(len(s_tuples), np.int16), s_tuples),
        (None,),
        payload_bits=payload_bits,
        materialize=materialize,
    )[None]


@register_protocol(
    task="equijoin",
    name="tree",
    accepts_seed=True,
    description="Single-round equi-join of encoded relations on any tree",
)
def tree_equijoin(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
    blocks: Sequence[frozenset] | None = None,
    materialize: bool = False,
) -> ProtocolResult:
    """Single-round equi-join of encoded relations; see module docstring.

    ``outputs[v]`` holds ``num_pairs``/``num_keys`` and, with
    ``materialize=True``, the joined ``(key, r_payload, s_payload)``
    rows node ``v`` produced.
    """
    tree.require_symmetric("tree_equijoin")
    distribution.validate_for(tree)

    swapped = distribution.total("R") > distribution.total("S")
    small_tag, large_tag = ("S", "R") if swapped else ("R", "S")
    small_recv, large_recv = (
        (_S_RECV, _R_RECV) if swapped else (_R_RECV, _S_RECV)
    )
    cluster, blocks, _, _ = hashed_partition_round(
        tree,
        distribution,
        small_tag=small_tag,
        large_tag=large_tag,
        small_recv=small_recv,
        large_recv=large_recv,
        blocks=blocks,
        seed=seed,
        seed_scope="equijoin",
        key_shift=payload_bits,
    )
    outputs = join_columns(
        cluster.column(_R_RECV),
        cluster.column(_S_RECV),
        cluster.compute_order,
        payload_bits=payload_bits,
        materialize=materialize,
    )
    return ProtocolResult.from_ledger(
        "tree-equijoin",
        cluster.ledger,
        outputs=outputs,
        meta={
            "num_blocks": len(blocks),
            "swapped_relations": swapped,
            "payload_bits": payload_bits,
        },
    )
