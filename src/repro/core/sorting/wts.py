"""Weighted TeraSort — wTS (Section 5.2, Theorem 7).

Four rounds on a symmetric tree, generalizing TeraSort in three ways:

1. **tree topologies** — all routing follows the tree; the final runs
   live on the *heavy* nodes in left-to-right traversal order;
2. **heavy/light split** — only nodes holding at least ``N / (2|V_C|)``
   elements participate in splitting (the paper's prose says
   ``N_v >= |V_C|`` but its own analysis uses ``N/(2|V_C|)``; see
   DESIGN.md), and light nodes first scatter their data to heavy nodes
   proportionally (Algorithm 6);
3. **proportional splitting** — the coordinator assigns each heavy node
   ``c_j = ceil(|V_C| M_j / N)`` sample intervals, so each ends up with
   ``O(N_{v_j})`` elements rather than ``N/|V_C|``.

With probability ``1 - 1/N`` (for ``N >= 4|V_C|^2 ln(|V_C| N)``) the cost
is within a constant factor of the Theorem 6 bound.  The optional
improvement from the end of Section 5.2 — gather everything when one
node holds more than half the data — is on by default
(``gather_shortcut``); ablations can disable it or the proportional
splitting.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.sorting.proportional import proportional_runs
from repro.core.sorting.terasort import (
    broadcast_splitters,
    compute_ids,
    draw_samples,
    interval_runs,
    laid_end_to_end,
    sample_probability,
    select_splitters,
)
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import NodeId, TreeTopology
from repro.util.intmath import ceil_div

_MOVED = "sort.moved"
_SAMPLES = "sort.samples"
_FINAL = "sort.final"


def heavy_threshold(num_compute: int, total: int) -> float:
    """The heavy/light cut: ``N / (2 |V_C|)``."""
    return total / (2.0 * num_compute)


@register_protocol(
    task="sorting",
    name="wts",
    accepts_seed=True,
    description="Weighted TeraSort (Section 5) on any symmetric tree",
)
def weighted_terasort(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
    tag: str = "R",
    gather_shortcut: bool = True,
    proportional_split: bool = True,
) -> ProtocolResult:
    """Run wTS; ``outputs[v]`` is node ``v``'s final sorted run.

    ``meta["order"]`` is the traversal order the runs follow (light nodes
    end up empty).  ``proportional_split=False`` is the ablation that
    assigns every heavy node one sample interval, as classic TeraSort
    would.
    """
    tree.require_symmetric("weighted TeraSort")
    distribution.validate_for(tree)
    order = tree.left_to_right_compute_order()
    sizes = dict(zip(order, distribution.sizes_over(tuple(order), tag).tolist()))
    total = sum(sizes.values())
    cluster = Cluster(tree, distribution)
    if total == 0:
        outputs = {v: np.empty(0, np.int64) for v in order}
        return ProtocolResult.from_ledger(
            "weighted-terasort", cluster.ledger, outputs=outputs,
            meta={"order": order, "strategy": "empty"},
        )

    rank = tree.routing_index.index_of  # the node_sort_key order, as ints
    heaviest = max(order, key=lambda v: (sizes[v], rank[v]))
    if gather_shortcut and sizes[heaviest] > total / 2:
        others = [v for v in order if v != heaviest]
        with cluster.round() as ctx:
            ctx.exchange_runs(
                compute_ids(cluster, others),
                compute_ids(cluster, [heaviest] * len(others)),
                *laid_end_to_end([cluster.take(v, tag) for v in others]),
                tag=_FINAL,
            )
        merged = np.sort(
            np.concatenate(
                [cluster.local(heaviest, tag), cluster.local(heaviest, _FINAL)]
            )
        )
        outputs = {v: np.empty(0, np.int64) for v in order}
        outputs[heaviest] = merged
        return ProtocolResult.from_ledger(
            "weighted-terasort",
            cluster.ledger,
            outputs=outputs,
            meta={"order": order, "strategy": "gather", "target": heaviest},
        )

    threshold = heavy_threshold(len(order), total)
    heavy = [v for v in order if sizes[v] >= threshold]
    light = [v for v in order if sizes[v] < threshold]
    if not heavy:  # pragma: no cover - max size always reaches N/|V_C|
        raise ProtocolError("no heavy nodes; threshold bug")
    heavy_sizes = [sizes[v] for v in heavy]
    heavy_ids = compute_ids(cluster, heavy)

    # Round 1: light nodes scatter to heavy nodes proportionally (Alg. 6);
    # each ships min(quota, elements remaining) to the heavy nodes in turn.
    with cluster.round() as ctx:
        senders = [v for v in light if sizes[v]]
        lengths, values = laid_end_to_end(
            [cluster.take(v, tag) for v in senders]
        )
        rows, columns, counts = proportional_runs(heavy_sizes, lengths)
        if counts.sum() < len(values):  # pragma: no cover - Lemma 9(3)
            raise ProtocolError("proportional quotas fell short")
        ctx.exchange_runs(
            compute_ids(cluster, senders)[rows],
            heavy_ids[columns],
            counts,
            values,
            tag=_MOVED,
        )

    # what the heavy nodes now hold, end to end in heavy order
    lengths, everything = laid_end_to_end(
        [cluster.local(v, t) for v in heavy for t in (tag, _MOVED)]
    )
    m_lengths = lengths.reshape(-1, 2).sum(axis=1)
    m_sizes = dict(zip(heavy, m_lengths.tolist()))

    # Round 2: heavy nodes sample and ship samples to the first heavy node.
    coordinator = heavy[0]
    rho = sample_probability(len(order), total)
    with cluster.round() as ctx:
        samples = draw_samples(
            "wts",
            seed,
            heavy,
            np.split(everything, np.cumsum(m_lengths)[:-1]),
            rho,
        )
        ctx.exchange_runs(
            heavy_ids,
            np.full(len(heavy), heavy_ids[0]),
            *laid_end_to_end(samples),
            tag=_SAMPLES,
        )

    samples = np.sort(cluster.take(coordinator, _SAMPLES))
    if proportional_split:
        interval_counts = [
            ceil_div(len(order) * m_sizes[v], total) if m_sizes[v] else 1
            for v in heavy
        ]
    else:
        interval_counts = [1] * len(heavy)
    splitters = select_splitters(samples, interval_counts)

    # Round 3: broadcast the splitters to the other heavy nodes.
    with cluster.round() as ctx:
        broadcast_splitters(ctx, heavy_ids, splitters)

    # Round 4: scatter by splitter interval; heavy node j keeps
    # [b_{j-1}, b_j).  Each fragment is sorted first (after sampling, so
    # the samples are those of the unsorted fragment) and cut at the
    # splitters: one run per non-empty (heavy, heavy) pair.
    with cluster.round() as ctx:
        fragments, intervals, counts = interval_runs(everything, m_lengths, splitters)
        ctx.exchange_runs(
            heavy_ids[fragments], heavy_ids[intervals], counts, everything, tag=_FINAL
        )

    outputs = {v: np.empty(0, np.int64) for v in order}
    for node in heavy:
        outputs[node] = np.sort(cluster.local(node, _FINAL))
    return ProtocolResult.from_ledger(
        "weighted-terasort",
        cluster.ledger,
        outputs=outputs,
        meta={
            "order": order,
            "strategy": "wts",
            "heavy": heavy,
            "light": light,
            "rho": rho,
            "num_samples": int(len(samples)),
            "splitters": splitters,
            "m_sizes": m_sizes,
            "interval_counts": interval_counts,
        },
    )
