"""Classic TeraSort (Section 5.2 recap) — also the topology-agnostic baseline.

Three rounds: every node samples its data with probability
``ρ = 4 (|V_C|/N) ln(|V_C| N)`` and ships samples to a coordinator; the
coordinator picks ``|V_C| - 1`` equally spaced splitters from the sorted
samples and broadcasts them; every node then scatters each element to the
node owning its splitter interval.  Data lands evenly across *all*
compute nodes regardless of bandwidth or initial placement — the design
point the weighted variant (:mod:`repro.core.sorting.wts`) improves on.

The scatter is sort-then-cut: a node sorts its fragment (it ends up
sorted anyway, and local work is free in the model) and cuts it at the
splitters, so its traffic is one contiguous run per non-empty interval
and the round registers as a single run record
(:meth:`~repro.sim.cluster.RoundContext.exchange_runs`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import NodeId, TreeTopology
from repro.util.seeding import derive_seed

_SAMPLES = "sort.samples"
_SPLITTERS = "sort.splitters"
_FINAL = "sort.final"


def sample_probability(num_compute: int, total: int) -> float:
    """``ρ = 4 (|V_C|/N) ln(|V_C| N)``, clamped into [0, 1]."""
    if total <= 0:
        return 0.0
    rho = 4.0 * num_compute / total * math.log(num_compute * total)
    return min(1.0, max(0.0, rho))


def select_splitters(
    sorted_samples: np.ndarray, counts: list[int]
) -> np.ndarray:
    """Splitters from sorted samples: one every ``ceil(s / |V_C|)`` samples.

    ``counts[j]`` is how many sample-intervals node ``j`` is responsible
    for (all ones for classic TeraSort; ``c_j = ceil(|V_C| M_j / N)`` for
    the weighted variant).  Returns the ``len(counts) - 1`` internal
    splitters; out-of-range sample indices clamp to the largest sample,
    making the trailing intervals empty rather than failing.
    """
    num_targets = sum(counts)
    if num_targets <= 0:
        raise ProtocolError("splitter selection needs at least one interval")
    s = len(sorted_samples)
    if s == 0:
        return np.empty(0, np.int64)
    step = math.ceil(s / max(1, num_targets))
    indices = np.minimum(np.cumsum(counts[:-1], dtype=np.int64) * step, s) - 1
    return np.asarray(sorted_samples[np.maximum(indices, 0)], dtype=np.int64)


def compute_ids(cluster, nodes) -> np.ndarray:
    """The compute-order indices of ``nodes``, as ``exchange_runs`` takes them."""
    position = cluster.tree.compute_position
    return np.asarray([position[v] for v in nodes], dtype=np.intp)


def broadcast_splitters(ctx, ids: np.ndarray, splitters: np.ndarray) -> None:
    """The coordinator ``ids[0]`` multicasts ``splitters`` to every other
    node of ``ids``: one run, routed on its Steiner tree."""
    if len(splitters) and len(ids) > 1:
        ctx.exchange_multicast_runs(
            ids[:1], ids[None, 1:], [len(splitters)], splitters, tag=_SPLITTERS
        )


def draw_samples(
    stream: str, seed: int, nodes, fragments, rho: float
) -> list[np.ndarray]:
    """Each node's sample of its fragment: every element independently
    with probability ``rho``, from the node's own ``(seed, stream)`` RNG.

    At ``rho >= 1`` the fragments are the samples and no RNG is built:
    the draw ``random() < rho`` keeps every element, as ``random()`` is
    in ``[0, 1)``."""
    if rho >= 1.0:
        return list(fragments)
    samples = []
    for node, local in zip(nodes, fragments):
        if len(local):
            rng = np.random.default_rng(derive_seed(seed, stream, node))
            local = local[rng.random(len(local)) < rho]
        samples.append(local)
    return samples


def laid_end_to_end(fragments: list) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, values)``: the fragments' sizes and their concatenation
    (a fresh array, also for one fragment)."""
    lengths = np.fromiter(map(len, fragments), np.intp, len(fragments))
    values = np.concatenate(fragments) if fragments else np.empty(0, np.int64)
    return lengths, values


def interval_runs(
    values: np.ndarray, lengths: np.ndarray, splitters: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort each fragment in place; its non-empty runs per splitter interval.

    ``values`` holds the fragments end to end, ``lengths[i]`` elements
    each; element ``x`` belongs to interval ``#{splitters <= x}``.
    Returns ``(fragments, intervals, counts)``: fragment ``i`` holds
    ``counts`` elements of interval ``j``, which — the fragment now
    being sorted — are its next ones, so the runs come fragment by
    fragment and in interval order within each.  The search goes the
    cheaper way round: the splitters in each fragment (``O(s log n)``
    per fragment) when the fragments × intervals cut table is no larger
    than the data, else every element in the splitters (``O(n log s)``).
    """
    width = len(splitters) + 1
    starts = (np.cumsum(lengths) - lengths).tolist()
    if len(values) >= len(lengths) * width:
        cuts = np.empty((len(lengths), width), np.intp)
        cuts[:, 0] = starts
        for row, start, length in zip(cuts, starts, lengths.tolist()):
            fragment = values[start : start + length]
            fragment.sort()
            row[1:] = start + np.searchsorted(fragment, splitters, side="left")
        counts = np.diff(cuts.ravel(), append=len(values))
        keys = np.flatnonzero(counts)
        counts = counts[keys]
    else:
        for start, length in zip(starts, lengths.tolist()):
            values[start : start + length].sort()
        keys = np.repeat(np.arange(len(lengths)) * width, lengths)
        keys += np.searchsorted(splitters, values, side="right")
        heads = np.flatnonzero(np.diff(keys, prepend=-1))
        counts = np.diff(heads, append=len(values))
        keys = keys[heads]
    return keys // width, keys % width, counts


@register_protocol(
    task="sorting",
    name="terasort",
    kind="baseline",
    accepts_seed=True,
    description="Classic TeraSort, topology-agnostic splitters",
)
def terasort(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
) -> ProtocolResult:
    """Run classic TeraSort; ``outputs[v]`` is node ``v``'s sorted run.

    The runs follow the tree's left-to-right traversal order (stored in
    ``meta["order"]``), so the result is a valid sort in the Section 5
    sense — but the per-link cost ignores topology and placement.
    """
    tree.require_symmetric("TeraSort")
    distribution.validate_for(tree)
    order = tree.left_to_right_compute_order()
    total = distribution.total("R")
    cluster = Cluster(tree, distribution)
    if total == 0:
        outputs = {v: np.empty(0, np.int64) for v in order}
        return ProtocolResult.from_ledger(
            "terasort", cluster.ledger, outputs=outputs,
            meta={"order": order, "rho": 0.0},
        )

    coordinator = order[0]
    rho = sample_probability(len(order), total)
    order_ids = compute_ids(cluster, order)

    with cluster.round() as ctx:  # round 1: sampling
        samples = draw_samples(
            "terasort", seed, order, [cluster.local(v, "R") for v in order], rho
        )
        ctx.exchange_runs(
            order_ids,
            np.full(len(order), order_ids[0]),
            *laid_end_to_end(samples),
            tag=_SAMPLES,
        )

    samples = np.sort(cluster.take(coordinator, _SAMPLES))
    splitters = select_splitters(samples, [1] * len(order))

    with cluster.round() as ctx:  # round 2: broadcast splitters
        broadcast_splitters(ctx, order_ids, splitters)

    with cluster.round() as ctx:  # round 3: scatter by interval
        lengths, values = laid_end_to_end(
            [cluster.take(node, "R") for node in order]
        )
        fragments, intervals, counts = interval_runs(values, lengths, splitters)
        ctx.exchange_runs(
            order_ids[fragments], order_ids[intervals], counts, values, tag=_FINAL
        )

    outputs = {v: np.sort(cluster.local(v, _FINAL)) for v in order}
    return ProtocolResult.from_ledger(
        "terasort",
        cluster.ledger,
        outputs=outputs,
        meta={
            "order": order,
            "rho": rho,
            "num_samples": int(len(samples)),
            "splitters": splitters,
        },
    )
