"""wTS and TeraSort, one ``send`` / one ``exchange`` at a time: the reference.

Production (:mod:`repro.core.sorting.wts`, :mod:`repro.core.sorting.terasort`)
sorts every fragment first, cuts it at the splitters and registers each
round as one run record (``RoundContext.exchange_runs``).  These are the
bodies the two protocols had before that, moved here verbatim: every
unsorted element is looked up in the splitters, a light node issues one
``send`` per heavy node it feeds, a sampler one ``send`` to the
coordinator.  ``tests/core/sorting/test_reference_sorting.py`` requires
equal outputs, per-round edge loads, received counts, splitters and
sample counts; the bytes at the intermediate tags ``sort.final`` /
``sort.moved`` may differ in order (fragments now travel sorted) and are
not compared.

``reference_proportional_quotas`` (Algorithm 6 one light node at a time)
and ``reference_select_splitters`` (one splitter at a time) are the
scalar loops production ran before its quotas took one pass over the
heavy nodes for all light nodes
(:func:`repro.core.sorting.proportional.proportional_runs`) and its
splitters one gather; ``tests/core/sorting/test_proportional.py`` and
``test_reference_sorting.py`` require their results with ``==``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.sorting.terasort import sample_probability
from repro.core.sorting.wts import heavy_threshold
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.sim.cluster import make_cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology, node_sort_key
from repro.util.grouping import index_dtype
from repro.util.intmath import ceil_div
from repro.util.seeding import derive_seed

_MOVED = "sort.moved"
_SAMPLES = "sort.samples"
_SPLITTERS = "sort.splitters"
_FINAL = "sort.final"


def reference_proportional_quotas(
    heavy_sizes: Sequence[int], light_size: int
) -> list[int]:
    """Quotas ``N_u^i``: how many of ``light_size`` elements go to each heavy node.

    ``heavy_sizes`` are the ``N_{v_1}..N_{v_k}`` in traversal order; the
    result has the Lemma 9 prefix/range guarantees.  Quotas are upper
    bounds: callers send ``min(quota, elements remaining)`` so the total
    shipped is exactly ``light_size`` (property (3) guarantees the quotas
    suffice).
    """
    if light_size < 0:
        raise ValueError(f"light_size must be non-negative, got {light_size}")
    if any(size < 0 for size in heavy_sizes):
        raise ValueError("heavy sizes must be non-negative")
    total = sum(heavy_sizes)
    if total <= 0:
        raise ValueError("at least one heavy node must hold data")
    quotas: list[int] = []
    credit = 0.0
    for size in heavy_sizes:
        ideal = size / total * light_size
        fractional = ideal - math.floor(ideal)
        if credit >= fractional:
            quotas.append(math.floor(ideal))
            credit -= fractional
        else:
            quotas.append(math.floor(ideal) + 1)
            credit += 1.0 - fractional
    return quotas


def reference_select_splitters(
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
    splitters = []
    cumulative = 0
    for count in counts[:-1]:
        cumulative += count
        index = min(cumulative * step, s) - 1
        splitters.append(sorted_samples[max(0, index)])
    return np.asarray(splitters, dtype=np.int64)


def reference_weighted_terasort(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
    tag: str = "R",
    gather_shortcut: bool = True,
    proportional_split: bool = True,
    bits_per_element: int = 64,
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
    sizes = {v: distribution.size(v, tag) for v in order}
    total = sum(sizes.values())
    cluster = make_cluster(tree, distribution, bits_per_element=bits_per_element)
    if total == 0:
        outputs = {v: np.empty(0, np.int64) for v in order}
        return ProtocolResult.from_ledger(
            "weighted-terasort", cluster.ledger, outputs=outputs,
            meta={"order": order, "strategy": "empty"},
        )

    heaviest = max(order, key=lambda v: (sizes[v], node_sort_key(v)))
    if gather_shortcut and sizes[heaviest] > total / 2:
        with cluster.round() as ctx:
            for node in order:
                if node == heaviest:
                    continue
                local = cluster.take(node, tag)
                if len(local):
                    ctx.send(node, heaviest, local, tag=_FINAL)
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

    # Round 1: light nodes scatter to heavy nodes proportionally (Alg. 6).
    with cluster.round() as ctx:
        for node in light:
            local = cluster.take(node, tag)
            if not len(local):
                continue
            quotas = reference_proportional_quotas(heavy_sizes, len(local))
            offset = 0
            for target, quota in zip(heavy, quotas):
                if offset >= len(local):
                    break
                chunk = local[offset : offset + quota]
                offset += len(chunk)
                if len(chunk):
                    ctx.send(node, target, chunk, tag=_MOVED)
            if offset < len(local):  # pragma: no cover - Lemma 9(3)
                raise ProtocolError("proportional quotas fell short")

    current = {
        v: np.concatenate([cluster.local(v, tag), cluster.local(v, _MOVED)])
        for v in heavy
    }
    m_sizes = {v: len(current[v]) for v in heavy}

    # Round 2: heavy nodes sample and ship samples to the first heavy node.
    coordinator = heavy[0]
    rho = sample_probability(len(order), total)
    with cluster.round() as ctx:
        for node in heavy:
            local = current[node]
            if not len(local):
                continue
            rng = np.random.default_rng(derive_seed(seed, "wts", node))
            mask = rng.random(len(local)) < rho
            if mask.any():
                ctx.send(node, coordinator, local[mask], tag=_SAMPLES)

    samples = np.sort(cluster.take(coordinator, _SAMPLES))
    if proportional_split:
        counts = [
            ceil_div(len(order) * m_sizes[v], total) if m_sizes[v] else 1
            for v in heavy
        ]
    else:
        counts = [1] * len(heavy)
    splitters = reference_select_splitters(samples, counts)

    # Round 3: broadcast the splitters to the other heavy nodes.
    with cluster.round() as ctx:
        if len(splitters) and len(heavy) > 1:
            ctx.multicast(
                coordinator,
                [v for v in heavy if v != coordinator],
                splitters,
                tag=_SPLITTERS,
            )

    # Round 4: scatter by splitter interval; heavy node j keeps
    # [b_{j-1}, b_j).  One column for all heavy nodes, in heavy order.
    position = {v: i for i, v in enumerate(cluster.compute_order)}
    heavy_ids = np.asarray(
        [position[v] for v in heavy], dtype=index_dtype(len(position))
    )
    everything = np.concatenate([current[v] for v in heavy])
    with cluster.round() as ctx:
        ctx.exchange_column(
            np.repeat(heavy_ids, [m_sizes[v] for v in heavy]),
            heavy_ids[np.searchsorted(splitters, everything, side="right")],
            everything,
            tag=_FINAL,
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
            "interval_counts": counts,
        },
    )


def reference_terasort(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
    tag: str = "R",
    bits_per_element: int = 64,
) -> ProtocolResult:
    """Run classic TeraSort; ``outputs[v]`` is node ``v``'s sorted run.

    The runs follow the tree's left-to-right traversal order (stored in
    ``meta["order"]``), so the result is a valid sort in the Section 5
    sense — but the per-link cost ignores topology and placement.
    """
    tree.require_symmetric("TeraSort")
    distribution.validate_for(tree)
    order = tree.left_to_right_compute_order()
    total = distribution.total(tag)
    cluster = make_cluster(tree, distribution, bits_per_element=bits_per_element)
    if total == 0:
        outputs = {v: np.empty(0, np.int64) for v in order}
        return ProtocolResult.from_ledger(
            "terasort", cluster.ledger, outputs=outputs,
            meta={"order": order, "rho": 0.0},
        )

    coordinator = order[0]
    rho = sample_probability(len(order), total)

    with cluster.round() as ctx:  # round 1: sampling
        for node in order:
            local = cluster.local(node, tag)
            if not len(local):
                continue
            rng = np.random.default_rng(derive_seed(seed, "terasort", node))
            mask = rng.random(len(local)) < rho
            if mask.any():
                ctx.send(node, coordinator, local[mask], tag=_SAMPLES)

    samples = np.sort(cluster.take(coordinator, _SAMPLES))
    splitters = reference_select_splitters(samples, [1] * len(order))

    with cluster.round() as ctx:  # round 2: broadcast splitters
        if len(splitters) and len(order) > 1:
            ctx.multicast(
                coordinator,
                [v for v in order if v != coordinator],
                splitters,
                tag=_SPLITTERS,
            )

    with cluster.round() as ctx:  # round 3: scatter by interval
        for node in order:
            local = cluster.take(node, tag)
            if not len(local):
                continue
            intervals = np.searchsorted(splitters, local, side="right")
            ctx.exchange(node, intervals, local, tag=_FINAL, nodes=order)

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
