"""A round's unicast pair counts, sparse, against the dense pair matrix.

``RoundContext._collect_unicasts`` reduces the round's flat ``src * size
+ dst`` keys to ``(src, dst, count)`` triples — by one ``bincount`` when
the ``size²`` bins are at most four per key, by one sort otherwise;
``tests/reference_verify.py`` keeps the dense ``(nodes, nodes)`` matrix
it replaced.  Random rounds mixing ``send``, ``exchange_column`` and
``exchange_runs`` (zero-count runs included), on
trees of 3 to 300 nodes so that both reductions run, must give the
matrix's ``np.nonzero`` order and values, and identical loads, received
counts and storage.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sim.cluster import Cluster
from tests.cluster_identity import assert_clusters_identical
from tests.reference_verify import reference_collect_unicasts, reference_model
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
        kind = draw(st.sampled_from(["send", "column", "runs"]))
        tag = draw(st.sampled_from(["a", "b"]))
        size = int(rng.integers(0, most))
        if kind == "runs":
            runs = int(rng.integers(0, 3 * count))
            counts = rng.integers(0, 4, runs) * rng.integers(0, 2, runs)
            size = int(counts.sum())
            ends = (rng.integers(0, count, runs), rng.integers(0, count, runs))
            plan.append((kind, tag, *ends, counts))
        elif kind == "column":
            ends = (rng.integers(0, count, size), rng.integers(0, count, size))
            plan.append((kind, tag, *ends))
        else:
            plan.append((kind, tag, *rng.integers(0, count, 2).tolist()))
        plan[-1] += (rng.integers(-99, 99, size),)
    return tree, plan


def register(ctx, plan) -> None:
    order = ctx._cluster.compute_order
    for kind, tag, *args, values in plan:
        if kind == "runs":
            ctx.exchange_runs(*args, values, tag=tag)
        elif kind == "column":
            ctx.exchange_column(*args, values, tag=tag)
        else:
            source, target = args
            ctx.send(order[source], order[target], values, tag=tag)


def replay(cluster, plan) -> Cluster:
    with cluster.round() as ctx:
        register(ctx, plan)
    return cluster


@given(unicast_rounds())
@settings(max_examples=120, deadline=None)
def test_pair_counts_are_the_dense_matrix_read_sparsely(instance):
    tree, plan = instance
    with Cluster(tree).round() as ctx:
        register(ctx, plan)
        _, by_tag, (src, dst, counts) = ctx._collect_unicasts()
        _, by_tag_then, matrix = reference_collect_unicasts(ctx)
    expected_src, expected_dst = np.nonzero(matrix)
    assert src.tolist() == expected_src.tolist()
    assert dst.tolist() == expected_dst.tolist()
    assert counts.tolist() == matrix[expected_src, expected_dst].tolist()
    assert by_tag.keys() == by_tag_then.keys()
    for tag, parts in by_tag.items():
        for (ids, payload), (ids_then, payload_then) in zip(parts, by_tag_then[tag]):
            assert np.array_equal(ids, ids_then) and payload is payload_then


@given(unicast_rounds())
@settings(max_examples=60, deadline=None)
def test_loads_and_arrivals_match_the_dense_matrix(instance):
    tree, plan = instance
    production = replay(Cluster(tree), plan)
    with reference_model():
        reference = replay(Cluster(tree), plan)
    assert np.array_equal(production.ledger.link_loads(0), reference.ledger.link_loads(0))
    assert production.ledger.round_loads(0) == reference.ledger.round_loads(0)
    assert np.array_equal(production._received_elements, reference._received_elements)
    assert_clusters_identical(
        production, reference, a_name="sparse", b_name="dense matrix"
    )


@pytest.mark.parametrize(
    "racks, elements, bincounted",
    [([2] * 3, 400, True), ([4] * 4, 60, False), ([12] * 12, 2000, False), ([20] * 20, 200_000, True)],
)
def test_both_reductions_agree_with_the_matrix(racks, elements, bincounted):
    tree = repro.two_level(racks)
    rng = np.random.default_rng(len(racks))
    count = len(tree.compute_nodes)
    size = tree.routing_index.num_nodes
    assert (size * size <= 4 * elements) == bincounted
    plan = [("column", "a", rng.integers(0, count, elements), rng.integers(0, count, elements), rng.integers(0, 9, elements))]
    production = replay(Cluster(tree), plan)
    with reference_model():
        reference = replay(Cluster(tree), plan)
    assert_clusters_identical(production, reference)


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
