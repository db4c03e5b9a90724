"""Every registered protocol against the Section-2 model (``tests/model``).

Each protocol runs on its real clusters under :class:`ModelAuditor`,
which checks every round's per-link loads, round cost, received counts
and the bytes appended to every ``(node, tag)`` against the model.  The
task's outputs must equal the model's, and the registered lower bound
the model's formula, over random symmetric trees of every shape (stars
with unequal leaf bandwidths for the star protocols), the four
placement policies, independent relation sizes and every boolean
option a protocol takes.
"""

import inspect
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro
from repro.context import use
from repro.data.distribution import Distribution
from repro.engine import run_with_result
from repro.errors import ProtocolError, TopologyError
from repro.topology.builders import star, two_level
from tests.model import bounds, tasks
from tests.model.rounds import ModelAuditor
from tests.strategies import BANDWIDTH_CHOICES, shaped_trees

PROTOCOLS = repro.list_protocols()
STAR_PROTOCOLS = [spec for spec in PROTOCOLS if spec.topology == "star"]
# the star cartesian products need a hub that only routes
HUB_ROUTES = [spec for spec in STAR_PROTOCOLS if spec.task == "cartesian-product"]
PLACEMENTS = ("uniform", "zipf", "single-heavy", "proportional")
OPS = ("sum", "count", "min", "max")
FLAGS = ("materialize", "pre_aggregate")
# Theorem 5, Algorithm 4 and wHC take |R| == |S| only
EQUAL_SIZES = {("cartesian-product", name) for name in ("tree", "star", "whc")}

MODEL_BOUNDS = {
    "set-intersection": bounds.intersection,
    "equijoin": bounds.intersection,
    "sorting": bounds.sorting,
    "cartesian-product": bounds.cartesian,
    "groupby-aggregate": bounds.groupby,
    "triangle-count": bounds.triangles,
    "connected-components": bounds.components,
}


def _spec_id(spec) -> str:
    return f"{spec.task}/{spec.name}"


@st.composite
def star_trees(draw, *, hub_may_compute=False):
    """A star with 3-6 leaves of drawn bandwidths; its hub ``w`` routes
    unless ``hub_may_compute`` and drawn so."""
    leaves = draw(st.integers(3, 6))
    tree = star(leaves, bandwidth=draw(st.lists(
        st.sampled_from(BANDWIDTH_CHOICES), min_size=leaves, max_size=leaves
    )))
    if hub_may_compute and draw(st.booleans()):
        tree = tree.with_compute_nodes([*tree.compute_nodes, "w"])
    return tree


def _instance(task, tree, policy, r_size, s_size, seed):
    if task in ("connected-components", "triangle-count"):
        return repro.random_graph_distribution(
            tree, num_edges=r_size, policy=policy, seed=seed
        )
    if task in ("equijoin", "groupby-aggregate"):
        return repro.random_tuple_distribution(
            tree, r_size=r_size, s_size=s_size, key_space=8, policy=policy, seed=seed
        )
    return repro.random_distribution(
        tree, r_size=r_size, s_size=s_size, policy=policy, seed=seed
    )


def _rows(distribution, tag) -> list:
    return tasks.rows(distribution.relation(tag))


def _merged(outputs) -> dict:
    """Per-node ``{key: value}`` outputs as one dict; no key twice."""
    merged = {}
    for output in outputs.values():
        for key, value in output.items():
            assert int(key) not in merged, key
            merged[int(key)] = int(value)
    return merged


def _pairs(outputs) -> list:
    """Every materialized pair; a node that made none may list none."""
    return [
        tuple(map(int, row))
        for output in outputs.values()
        for row in output.get("pairs", ())
    ]


def _assert_outputs(task, tree, distribution, result, opts) -> None:
    outputs = result.outputs
    if task == "set-intersection":
        found = sorted(int(x) for values in outputs.values() for x in values)
        assert found == tasks.intersection(distribution)
    elif task == "cartesian-product":
        produced = sum(output["num_pairs"] for output in outputs.values())
        assert produced >= distribution.total("R") * distribution.total("S")
        if opts.get("materialize"):  # a pair may come out twice
            expected = product(*(map(int, distribution.relation(t)) for t in "RS"))
            assert set(_pairs(outputs)) == set(expected)
    elif task == "sorting":
        assert tasks.sorted_along(
            tree, outputs, result.meta["order"], distribution.relation("R")
        )
    elif task == "equijoin":
        expected = tasks.join(*(_rows(distribution, tag) for tag in "RS"))
        produced = sum(output["num_pairs"] for output in outputs.values())
        assert produced == sum(expected.values())
        if opts["materialize"]:
            assert sorted(_pairs(outputs)) == sorted(expected.elements())
    elif task == "groupby-aggregate":
        assert _merged(outputs) == tasks.aggregate(_rows(distribution, "R"), opts["op"])
    else:
        edges = tasks.graph_edges(distribution.relation("E"))
        if task == "triangle-count":
            produced = sum(output["num_triangles"] for output in outputs.values())
            assert produced == tasks.triangle_count(edges)
        else:
            assert _merged(outputs) == tasks.components(edges)


def _run_against_the_model(spec, tree, distribution, seed, opts):
    auditor = ModelAuditor()
    with use(auditor=auditor):
        report, result = run_with_result(
            spec.task, tree, distribution, protocol=spec.name, seed=seed, **opts
        )
    assert auditor.costs or not report.cost
    _assert_outputs(spec.task, tree, distribution, result, opts)
    model_bound = bounds.value(MODEL_BOUNDS[spec.task](tree, distribution))
    assert math.isclose(report.lower_bound, model_bound), (
        report.lower_bound,
        model_bound,
    )
    return result


@pytest.mark.parametrize("spec", PROTOCOLS, ids=_spec_id)
@given(
    data=st.data(),
    policy=st.sampled_from(PLACEMENTS),
    r_size=st.integers(0, 40),
    s_size=st.integers(0, 40),
    seed=st.integers(0, 99),
    op=st.sampled_from(OPS),
)
@settings(max_examples=40, deadline=None)
def test_protocol_matches_the_model(spec, data, policy, r_size, s_size, seed, op):
    tree = data.draw(
        star_trees(hub_may_compute=spec not in HUB_ROUTES)
        if spec.topology == "star"
        else shaped_trees(max_nodes=8),
        label="tree",
    )
    # every protocol needs equal bandwidths both ways (see below)
    assume(tree.is_symmetric)
    if (spec.task, spec.name) in EQUAL_SIZES:
        s_size = r_size
    if spec.name == "whc":  # weighted HyperCube refuses an empty input
        assume(r_size > 0)
    distribution = _instance(spec.task, tree, policy, r_size, s_size, seed)
    takes = inspect.signature(spec.func).parameters
    opts = {flag: data.draw(st.booleans(), label=flag) for flag in FLAGS if flag in takes}
    if "op" in takes:
        opts["op"] = op
    _run_against_the_model(spec, tree, distribution, seed, opts)


@pytest.mark.parametrize("spec", PROTOCOLS, ids=_spec_id)
def test_asymmetric_links_are_refused(spec):
    tree = star(4, bandwidth=[1.0, 2.0, 4.0, 8.0])
    distribution = _instance(spec.task, tree, "uniform", 12, 12, seed=1)
    lopsided = tree.with_bandwidths({("v1", "w"): 0.5})
    with pytest.raises(TopologyError):
        run_with_result(spec.task, lopsided, distribution, protocol=spec.name)


@pytest.mark.parametrize(
    "spec, tree",
    [(spec, two_level([2, 2])) for spec in STAR_PROTOCOLS]
    + [(spec, star(3).with_compute_nodes(["v1", "v2", "v3", "w"])) for spec in HUB_ROUTES],
    ids=[f"{_spec_id(s)}-not-a-star" for s in STAR_PROTOCOLS]
    + [f"{_spec_id(s)}-computing-hub" for s in HUB_ROUTES],
)
def test_star_protocols_refuse_other_shapes(spec, tree):
    distribution = _instance(spec.task, tree, "uniform", 12, 12, seed=1)
    with pytest.raises(ProtocolError):
        run_with_result(spec.task, tree, distribution, protocol=spec.name)


def test_unequal_star_scatters_from_alpha_to_beta():
    """Algorithm 8's proportional strategy with data on both sides: Vα
    (v1, v2 hold fewer than |R| elements) cuts its S fragments into one
    run per Vβ node, and the rounds, outputs and bound match the model."""
    tree = star(5, bandwidth=[1, 2, 1, 4, 8])
    sizes = {"v1": (0, 3), "v2": (0, 2), "v3": (2, 12), "v4": (1, 13), "v5": (1, 14)}
    ids = iter(range(1, 100))
    distribution = Distribution(
        {
            node: {tag: np.array([next(ids) for _ in range(n)]) for tag, n in zip("RS", pair)}
            for node, pair in sizes.items()
        }
    )
    (spec,) = (s for s in STAR_PROTOCOLS if s.name == "unequal-star")
    result = _run_against_the_model(spec, tree, distribution, 0, {})
    meta = result.meta
    assert meta["strategy"] == "proportional-to-beta"
    assert (meta["v_alpha"], meta["v_beta"]) == (["v1", "v2"], ["v3", "v4", "v5"])
    # what the per-chunk ``send`` loop this exchange replaced charged
    assert meta["candidates"] == {
        "gather-max-bandwidth": 14.0,
        "proportional-to-beta": 3.0,
        "generalized-whc": 4.0,
    }
    assert result.ledger.round_loads(0) == {
        ("v1", "w"): 3, ("v2", "w"): 2, ("v3", "w"): 2, ("v4", "w"): 1, ("v5", "w"): 1,
        ("w", "v3"): 2, ("w", "v4"): 4, ("w", "v5"): 7,
    }
