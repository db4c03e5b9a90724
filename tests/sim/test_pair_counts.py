"""A round's unicast pair counts, sparse, against their definition.

``RoundContext._collect_unicasts`` reduces the round's flat ``src * size
+ dst`` run keys to ``(src, dst, count)`` triples — by one
``bincount``-sized table when the ``size²`` bins are at most four per
run, by one sort otherwise.  Random rounds of ``exchange_runs`` records
— one-run records, hash partitions cut into runs by ``runs_by_target``
and free run lists, zero-count runs included — on trees of 3 to 300
nodes so that both reductions run, must give every pair's element count
in pair order, and the loads, received counts and storage of the
Section-2 model.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sim.cluster import Cluster
from repro.util.grouping import runs_by_target
from tests.cluster_identity import assert_matches_model
from tests.model.rounds import ModelCluster
from tests.strategies import shaped_trees, tree_topologies


@st.composite
def unicast_rounds(draw):
    tree = draw(
        st.one_of(tree_topologies(min_nodes=3, max_nodes=300), shaped_trees())
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = len(tree.compute_nodes)
    most = draw(st.sampled_from([8, 200, 3000]))
    plan = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["run", "column", "runs"]))
        tag = draw(st.sampled_from(["a", "b"]))
        size = int(rng.integers(0, most))
        values = rng.integers(-99, 99, size)
        if kind == "runs":
            runs = int(rng.integers(0, 3 * count))
            counts = rng.integers(0, 4, runs) * rng.integers(0, 2, runs)
            ends = (rng.integers(0, count, runs), rng.integers(0, count, runs))
            values = rng.integers(-99, 99, int(counts.sum()))
        elif kind == "column":
            order, *ends, counts = runs_by_target(
                rng.integers(0, count, size), rng.integers(0, count, size)
            )
            values = values[order]
        else:
            ends, counts = rng.integers(0, count, (2, 1)), [size]
        plan.append((tag, *ends, counts, values))
    return tree, plan


def register(ctx, plan) -> None:
    for tag, *args in plan:
        ctx.exchange_runs(*args, tag=tag)


def replay(cluster, plan):
    with cluster.round() as ctx:
        register(ctx, plan)
    return cluster


@given(unicast_rounds())
@settings(max_examples=120, deadline=None)
def test_pair_counts_count_every_element_once(instance):
    """Ascending ``(src, dst)`` routing-index pairs with their element
    counts, and per tag the registered payloads, each element beside its
    target's routing index."""
    tree, plan = instance
    at = tree.routing_index.compute_idx
    pairs, parts = Counter(), {}
    for tag, sources, targets, counts, values in plan:
        sources, targets = np.repeat(sources, counts), np.repeat(targets, counts)
        pairs.update(zip(at[sources].tolist(), at[targets].tolist()))
        if len(values):
            parts.setdefault(tag, []).append((at[targets].tolist(), values))
    with Cluster(tree).round() as ctx:
        register(ctx, plan)
        # finalization collects a non-empty stream only
        if not ctx._unicast_stream:
            assert not parts and not pairs
            return
        _, by_tag, (src, dst, counts) = ctx._collect_unicasts()
    assert list(zip(zip(src.tolist(), dst.tolist()), counts.tolist())) == sorted(
        pairs.items()
    )
    assert by_tag.keys() == parts.keys()
    for tag, found in by_tag.items():
        assert len(found) == len(parts[tag])
        for (ids, counts, payload), (targets, values) in zip(found, parts[tag]):
            # one id per run
            assert np.repeat(ids, counts).tolist() == targets and payload is values


@given(unicast_rounds())
@settings(max_examples=60, deadline=None)
def test_loads_and_arrivals_match_the_model(instance):
    tree, plan = instance
    assert_matches_model(replay(Cluster(tree), plan), replay(ModelCluster(tree), plan))


@pytest.mark.parametrize(
    "racks, runs, bincounted",
    [([2] * 3, 400, True), ([4] * 4, 60, False), ([12] * 12, 2000, False), ([20] * 20, 200_000, True)],
)
def test_both_reductions_agree_with_the_model(racks, runs, bincounted):
    tree = repro.two_level(racks)
    rng = np.random.default_rng(len(racks))
    count = len(tree.compute_nodes)
    size = tree.routing_index.num_nodes
    assert (size * size <= 4 * runs) == bincounted
    counts = rng.integers(1, 3, runs)
    ends = rng.integers(0, count, (2, runs))
    plan = [("a", *ends, counts, rng.integers(0, 9, int(counts.sum())))]
    assert_matches_model(replay(Cluster(tree), plan), replay(ModelCluster(tree), plan))


def test_a_uniform_hash_round_on_2048_nodes_stays_small():
    tree = repro.two_level([32] * 64)
    distribution = repro.random_distribution(
        tree, r_size=40_000, s_size=160_000, seed=1
    )
    repro.run("set-intersection", tree, distribution, protocol="uniform-hash", seed=1)
    tracemalloc.start()
    try:
        repro.run(
            "set-intersection", tree, distribution, protocol="uniform-hash", seed=1
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense (2113, 2113) pair matrix alone was 34 MiB, twice per round
    assert peak < 50 * 2**20
