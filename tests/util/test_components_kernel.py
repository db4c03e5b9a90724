"""``component_roots`` against the model's union-find, and its round count."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.generators import (
    gnm_random_graph,
    planted_components_graph,
    powerlaw_graph,
)
from repro.util import components
from repro.util.components import component_roots
from tests.model.tasks import components as union_find


def expected_roots(u, v, n: int) -> np.ndarray:
    """Union-find's answer in the kernel's shape: isolated vertices are roots."""
    roots = np.arange(n, dtype=np.int64)
    for vertex, root in union_find(zip(u, v)).items():
        roots[vertex] = root
    return roots


@st.composite
def edge_lists(draw, *, max_vertices: int = 60, max_edges: int = 120):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # self-loops, duplicates and both orientations all occur at this density
    return rng.integers(0, n, m), rng.integers(0, n, m), n


@given(instance=edge_lists())
@settings(max_examples=150, deadline=None)
def test_matches_union_find(instance):
    u, v, n = instance
    roots = component_roots(u, v, n)
    assert np.array_equal(roots, expected_roots(u, v, n))
    # orientation and repetition are not information
    both = component_roots(
        np.concatenate([u, v, u]), np.concatenate([v, u, v]), n
    )
    assert np.array_equal(both, roots)


@st.composite
def large_edge_lists(draw):
    """Up to 5 000 vertices and 20 000 edges, sparse to dense; self-loops
    and repeated edges are planted, since at low density few occur."""
    u, v, n = draw(edge_lists(max_vertices=5_000, max_edges=20_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    loops = rng.integers(0, n, len(u) // 20 + 1)
    again = rng.integers(0, max(len(u), 1), len(u) // 10)
    edges = np.concatenate(
        [np.column_stack((u, v)), np.column_stack((loops, loops)),
         np.column_stack((v, u))[again]]
    )
    edges = edges[rng.permutation(len(edges))]
    return edges[:, 0], edges[:, 1], n


def full_size(n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, m), rng.integers(0, n, m), n


@given(instance=large_edge_lists())
# the top of the range, below and above the giant-component threshold
@example(instance=full_size(5_000, 2_000, 1))
@example(instance=full_size(5_000, 20_000, 2))
@settings(max_examples=30, deadline=None)
def test_matches_union_find_at_scale(instance):
    """Many hook rounds and many hooks onto one root per round: the
    sizes at which the order of a round's hooks could matter."""
    u, v, n = instance
    assert np.array_equal(component_roots(u, v, n), expected_roots(u, v, n))


@pytest.mark.parametrize(
    "shape", ["tiny-components", "one-giant", "giant-plus-dust"]
)
def test_component_shapes(shape):
    rng = np.random.default_rng(11)
    n = 4_000
    if shape == "tiny-components":  # 2 000 disjoint edges
        pairs = rng.permutation(n).reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
    elif shape == "one-giant":  # a random spanning tree plus chords
        order = rng.permutation(n)
        parents = order[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
        u = np.concatenate([order[1:], rng.integers(0, n, 500)])
        v = np.concatenate([parents, rng.integers(0, n, 500)])
    else:  # half the vertices in one component, the rest isolated or paired
        half = n // 2
        u = np.concatenate([np.arange(1, half), np.arange(half, n - 1, 4)])
        v = np.concatenate(
            [rng.integers(0, np.arange(1, half)), np.arange(half + 1, n, 4)]
        )
    assert np.array_equal(component_roots(u, v, n), expected_roots(u, v, n))


@given(
    instances=st.lists(edge_lists(max_vertices=25, max_edges=40), min_size=1, max_size=6)
)
@settings(max_examples=60, deadline=None)
def test_one_call_for_several_fragments(instances):
    """Fragments keyed into disjoint index ranges: one call, same closures."""
    offsets = np.cumsum([0] + [n for _, _, n in instances])
    batched = component_roots(
        np.concatenate([u + base for (u, _, _), base in zip(instances, offsets)]),
        np.concatenate([v + base for (_, v, _), base in zip(instances, offsets)]),
        int(offsets[-1]),
    )
    for (u, v, n), base in zip(instances, offsets):
        assert np.array_equal(
            batched[base : base + n], component_roots(u, v, n) + base
        )


GRAPH_FAMILIES = {
    # graph_cc's shape: average degree 16, one giant component
    "gnm-degree-16": lambda seed: gnm_random_graph(1_500, 12_000, seed=seed),
    "planted": lambda seed: planted_components_graph(8, 200, seed=seed),
    # hubs plus dust: components of very different sizes
    "powerlaw": lambda seed: powerlaw_graph(
        4_000, 6_000, exponent=1.2, seed=seed
    ),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
def test_matches_union_find_on_graph_families(family, seed):
    """The connected-components run verifier's expected labelling — the
    kernel over the edges' distinct endpoints — is union-find's, exactly,
    on every graph family the generators emit."""
    edges = GRAPH_FAMILIES[family](seed)
    vertices, rows = np.unique(edges, return_inverse=True)
    rows = rows.reshape(edges.shape)
    labels = vertices[component_roots(rows[:, 0], rows[:, 1], len(vertices))]
    assert dict(zip(vertices.tolist(), labels.tolist())) == union_find(edges)


def test_contract():
    roots = component_roots([], [], 0)
    assert roots.dtype == np.int64 and roots.shape == (0,)
    roots = component_roots([], [], 5)
    assert roots.dtype == np.int64 and roots.tolist() == [0, 1, 2, 3, 4]
    # any integer dtype in, int64 minimum index of the component out
    roots = component_roots(
        np.array([4, 2], dtype=np.int16), np.array([3, 2], dtype=np.uint8), 6
    )
    assert roots.dtype == np.int64 and roots.tolist() == [0, 1, 2, 3, 3, 5]
    assert roots.flags.writeable


def hooking_rounds(monkeypatch, u, v, n: int) -> int:
    calls = []
    hook_round = components._hook_round

    def counting(parent, a, b):
        calls.append(len(a))
        return hook_round(parent, a, b)

    monkeypatch.setattr(components, "_hook_round", counting)
    roots = component_roots(u, v, n)
    monkeypatch.undo()
    assert not roots.any()  # a path is one component, rooted at vertex 0
    return len(calls)


PATH = 5_000

#: hook rounds per path labelling, whatever order the edges come in
#: (``random`` is the seed-3 permutation)
PATH_ROUNDS = {"along": 1, "descending": 1, "zigzag": 2, "random": 8}


@pytest.mark.parametrize("edge_order", ["sorted", "reversed", "random"])
@pytest.mark.parametrize("labelling", sorted(PATH_ROUNDS))
def test_long_paths_take_logarithmically_many_rounds(
    monkeypatch, edge_order, labelling
):
    """Pointer jumping, not label crawling: a 5 000-path must not need
    thousands of hooking rounds whatever order its edges or ids come in.
    The counts are pinned, so a change to the hook cannot add rounds
    unnoticed."""
    rng = np.random.default_rng(3)
    if labelling == "along":
        ids = np.arange(PATH)
    elif labelling == "descending":
        ids = np.arange(PATH - 1, -1, -1)
    elif labelling == "zigzag":  # 0, n-1, 1, n-2, ...: every other id is a local minimum
        ids = np.empty(PATH, dtype=np.int64)
        ids[0::2] = np.arange(PATH // 2)
        ids[1::2] = np.arange(PATH - 1, PATH // 2 - 1, -1)
    else:
        ids = rng.permutation(PATH)
    u, v = ids[:-1], ids[1:]
    if edge_order == "reversed":
        u, v = u[::-1], v[::-1]
    elif edge_order == "random":
        shuffle = rng.permutation(PATH - 1)
        u, v = v[shuffle], u[shuffle]
    rounds = hooking_rounds(monkeypatch, u, v, PATH)
    assert rounds == PATH_ROUNDS[labelling] <= math.ceil(math.log2(PATH))


@pytest.mark.parametrize("centre_first", [True, False])
def test_star_on_the_largest_index(monkeypatch, centre_first):
    """Every edge hooks the centre in round one (all onto one root, the
    minimum must win), and every leaf then hooks onto 0 in round two."""
    centre, leaves = np.full(PATH - 1, PATH - 1), np.arange(PATH - 1)
    u, v = (centre, leaves) if centre_first else (leaves, centre)
    assert hooking_rounds(monkeypatch, u, v, PATH) == 2
