"""Unit tests for join ordering, protocol choice and plan explain."""

import math
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError, ReproError
from repro.plan.cost import CostModel
from repro.plan.logical import (
    Filter,
    GroupBy,
    Join,
    JoinCondition,
    Scan,
    chain_query,
    star_query,
)
from repro.plan.optimizer import STRATEGIES, _Compiler, _flatten_join, optimize
from repro.plan.relation import chain_catalog, star_catalog
from repro.topology.builders import star, two_level
from tests.plan.reference_search import reference_stages
from tests.plan.test_cost_kernels import QUERIES
from tests.strategies import shaped_trees


@pytest.fixture
def tree():
    return two_level([4, 4], leaf_bandwidth=[4.0, 1.0], uplink_bandwidth=2.0)


class TestCompilation:
    def test_chain_plan_shape(self, tree):
        catalog = chain_catalog(tree, num_relations=3, rows=200, seed=1)
        plan = optimize(chain_query(3), tree, catalog)
        kinds = [s.kind for s in plan.stages]
        assert kinds.count("scan") == 3
        assert kinds.count("join") == 2
        assert plan.output == len(plan.stages) - 1
        assert plan.estimated_cost > 0
        # every shuffle stage has a protocol and estimates
        for i in plan.shuffle_stages():
            assert plan.stages[i].protocol is not None

    def test_star_plan_merges_key(self, tree):
        catalog = star_catalog(tree, num_satellites=2, rows=200, seed=1)
        plan = optimize(star_query(2), tree, catalog)
        out = plan.output_schema.columns
        # one copy of the shared key plus one payload per relation
        assert sorted(out) == ["a0", "a1", "a2", "k"]

    def test_groupby_plan(self, tree):
        catalog = chain_catalog(tree, num_relations=2, rows=200, seed=1)
        query = GroupBy(chain_query(2), key="x2", value="x0", op="sum")
        plan = optimize(query, tree, catalog)
        assert plan.stages[plan.output].kind == "groupby"
        assert plan.output_schema.columns == ("x2", "sum_x0")

    def test_filter_is_local(self, tree):
        catalog = chain_catalog(tree, num_relations=2, rows=200, seed=1)
        query = Join(
            inputs=(Filter(Scan("R0"), "x0", "<=", 100), Scan("R1")),
            conditions=(JoinCondition(0, "x1", 1, "x1"),),
        )
        plan = optimize(query, tree, catalog)
        filters = [s for s in plan.stages if s.kind == "filter"]
        assert len(filters) == 1
        assert filters[0].est_cost == 0.0
        assert filters[0].protocol is None

    def test_nested_join_flattened(self, tree):
        catalog = chain_catalog(tree, num_relations=3, rows=150, seed=2)
        nested = Join(
            inputs=(
                Join(
                    inputs=(Scan("R0"), Scan("R1")),
                    conditions=(JoinCondition(0, "x1", 1, "x1"),),
                ),
                Scan("R2"),
            ),
            conditions=(JoinCondition(0, "x2", 1, "x2"),),
        )
        plan = optimize(nested, tree, catalog)
        assert len([s for s in plan.stages if s.kind == "join"]) == 2

    def test_unknown_relation(self, tree):
        with pytest.raises(PlanError):
            optimize(chain_query(3), tree, {})

    def test_unknown_strategy(self, tree):
        catalog = chain_catalog(tree, num_relations=2, rows=100, seed=1)
        with pytest.raises(PlanError):
            optimize(chain_query(2), tree, catalog, strategy="fastest")

    def test_disconnected_join_rejected(self, tree):
        catalog = chain_catalog(tree, num_relations=3, rows=100, seed=1)
        # R2 shares no condition with anything: every order leaves it
        # stranded, which must surface as a planning error, not a
        # silent cross product.
        query = Join(
            inputs=(Scan("R0"), Scan("R1"), Scan("R2")),
            conditions=(JoinCondition(0, "x1", 1, "x1"),),
        )
        with pytest.raises(PlanError, match="not connected"):
            optimize(query, tree, catalog)

    def test_self_join_names_the_repeated_column(self, tree):
        catalog = chain_catalog(tree, num_relations=2, rows=100, seed=1)
        query = Join((Scan("R0"), Scan("R0")), (JoinCondition(0, "x1", 1, "x1"),))
        with pytest.raises(PlanError, match="would hold 'x0' twice"):
            optimize(query, tree, catalog)

    def test_join_on_other_columns_names_the_repeated_column(self, tree):
        catalog = chain_catalog(tree, num_relations=2, rows=100, seed=1)
        # R0(x0, x1) on x0 = R1(x1, x2).x2: both sides keep an x1
        query = Join((Scan("R0"), Scan("R1")), (JoinCondition(0, "x0", 1, "x2"),))
        with pytest.raises(PlanError, match="would hold 'x1' twice"):
            optimize(query, tree, catalog)


class TestStrategies:
    def test_gather_strategy_uses_gather_everywhere(self, tree):
        catalog = chain_catalog(tree, num_relations=3, rows=200, seed=1)
        plan = optimize(chain_query(3), tree, catalog, strategy="gather")
        for i in plan.shuffle_stages():
            assert plan.stages[i].protocol == "gather"

    def test_optimized_estimate_not_above_baselines(self, tree):
        catalog = chain_catalog(
            tree, num_relations=3, rows=300, seed=4, policy="zipf"
        )
        query = chain_query(3)
        optimized = optimize(query, tree, catalog)
        gather = optimize(query, tree, catalog, strategy="gather")
        worst = optimize(query, tree, catalog, strategy="worst-order")
        assert optimized.estimated_cost <= gather.estimated_cost + 1e-9
        assert optimized.estimated_cost <= worst.estimated_cost + 1e-9

    def test_worst_order_at_least_optimized(self, tree):
        catalog = chain_catalog(tree, num_relations=4, rows=200, seed=3)
        query = chain_query(4)
        optimized = optimize(query, tree, catalog)
        worst = optimize(query, tree, catalog, strategy="worst-order")
        assert worst.estimated_cost >= optimized.estimated_cost - 1e-9

    def test_explain_renders(self, tree):
        catalog = chain_catalog(tree, num_relations=3, rows=150, seed=1)
        plan = optimize(chain_query(3), tree, catalog)
        text = plan.explain()
        assert "optimized plan" in text
        assert "join" in text
        assert "est cost" in text


# --------------------------------------------------------------------- #
# the search against exhaustive enumeration
# --------------------------------------------------------------------- #

ORACLE_TREES = {
    "racks-3-4-2": lambda: two_level([3, 4, 2], uplink_bandwidth=[1, 2, 4]),
    "star-6": lambda: star(6, bandwidth=[1, 2, 4, 2, 1, 8]),
}


def _join_of(query):
    while not isinstance(query, Join):
        query = query.child
    return query


def _sequence_costs(compiler, compiled, conditions, orders, protocols) -> dict:
    """``{(order, protocol sequence): cost}`` for every connected order,
    each sequence summed left to right through ``join_stages``, one
    one-row stack per stage."""
    costs = {}
    for order in orders:
        steps = compiler._merge_walk(compiled, conditions, order)
        if steps is None:
            continue
        for sequence in product(protocols, repeat=len(steps)):
            profile = compiled[order[0]][1].profile
            total = 0.0
            for step, name in zip(steps, sequence):
                right = compiled[step["new"]][1].profile
                (((cost, profile),),) = compiler.model.join_stages(
                    profile[None], right[None], [step["stats"].rows], (name,)
                )
                total += cost
            costs[order, sequence] = total
    return costs


def _mirror(order: tuple, sequence: tuple) -> tuple:
    """The first merge's two sides are one stage: equal up to a swap."""
    return frozenset(order[:2]), order[2:], sequence


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("tree_name", sorted(ORACLE_TREES))
@pytest.mark.parametrize("shape", sorted(QUERIES))
def test_search_finds_the_exhaustive_optimum(shape, tree_name, strategy):
    query, make_catalog, width = QUERIES[shape]
    tree = ORACLE_TREES[tree_name]()
    catalog = make_catalog(tree, rows=120, key_space=64, seed=3, policy="zipf", **width)
    plan = optimize(query, tree, catalog, strategy=strategy)

    compiler = _Compiler(tree, catalog, strategy)
    leaves, conditions = _flatten_join(_join_of(query))
    compiled = [compiler.compile(leaf) for leaf in leaves]
    if strategy == "gather":
        # the order as written, every stage the gather baseline
        orders, protocols = [tuple(range(len(leaves)))], ("gather",)
    else:
        orders, protocols = permutations(range(len(leaves))), compiler.join_protocols
    costs = _sequence_costs(compiler, compiled, conditions, orders, protocols)
    per_order = {}
    for (order, _), cost in costs.items():
        per_order[order] = min(cost, per_order.get(order, math.inf))
    if strategy == "worst-order":
        expected = max(per_order.values())
        winners = {
            _mirror(order, sequence)
            for (order, sequence), cost in costs.items()
            if per_order[order] == expected and cost == expected
        }
    else:
        expected = min(costs.values())
        winners = {
            _mirror(order, sequence)
            for (order, sequence), cost in costs.items()
            if cost == expected
        }

    joins = [stage for stage in plan.stages if stage.kind == "join"]
    join_cost = sum(stage.est_cost for stage in joins)
    assert math.isclose(join_cost, expected, rel_tol=1e-12)
    if isinstance(query, Join):
        assert math.isclose(plan.estimated_cost, expected, rel_tol=1e-12)
    if len(winners) == 1:
        leaf_of = {index: leaf for leaf, (index, _, _) in enumerate(compiled)}
        order = tuple(leaf_of[i] for i in joins[0].inputs) + tuple(
            leaf_of[stage.inputs[1]] for stage in joins[1:]
        )
        sequence = tuple(stage.protocol for stage in joins)
        assert {_mirror(order, sequence)} == winners


def _recording_join_stages(monkeypatch) -> list:
    """Patch the stacked entry point: one list of scored stage keys per
    call, ``(left bytes, right bytes, output rows)`` per row."""
    calls = []
    original = CostModel.join_stages

    def recorded(self, lefts, rights, out_rows, protocols):
        calls.append(
            [
                (left.tobytes(), right.tobytes(), rows)
                for left, right, rows in zip(lefts, rights, out_rows)
            ]
        )
        return original(self, lefts, rights, out_rows, protocols)

    monkeypatch.setattr(CostModel, "join_stages", recorded)
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shape", sorted(QUERIES))
def test_each_distinct_stage_is_scored_once(monkeypatch, shape, strategy):
    query, make_catalog, width = QUERIES[shape]
    tree = ORACLE_TREES["racks-3-4-2"]()
    catalog = make_catalog(tree, rows=120, key_space=64, seed=3, policy="zipf", **width)
    calls = _recording_join_stages(monkeypatch)
    plan = optimize(query, tree, catalog, strategy=strategy)
    keys = [key for call in calls for key in call]
    assert keys
    assert len(keys) == len(set(keys))
    # one stacked call per join step, none of them empty
    assert len(calls) == sum(stage.kind == "join" for stage in plan.stages)
    assert all(calls)


def test_chain_four_scores_its_shared_prefixes_once(monkeypatch):
    # Equal placements and a saturated key space give every relation
    # the same profile and every join the same estimate, so the eight
    # connected orders share the most prefixes: re-scoring them all
    # would score 104 stages.  The three join steps are three calls.
    tree = two_level([12] * 12, leaf_bandwidth=2, uplink_bandwidth=4)
    catalog = chain_catalog(tree, num_relations=4, rows=300, key_space=64, seed=1)
    calls = _recording_join_stages(monkeypatch)
    optimize(chain_query(4), tree, catalog)
    assert len(calls) == 3
    assert sum(map(len, calls)) <= 26


def test_compiles_share_no_stage_table():
    # Same profile shapes throughout, so a stage table leaked from one
    # compile would be keyed like the next one's stages; each compile
    # must still return what it returns on its own.
    tree = two_level([4, 4], leaf_bandwidth=[4.0, 1.0], uplink_bandwidth=2.0)
    swapped = two_level([4, 4], leaf_bandwidth=[1.0, 4.0], uplink_bandwidth=0.5)
    catalogs = [
        chain_catalog(tree, num_relations=4, rows=200, seed=seed, policy=policy)
        for seed, policy in ((1, "zipf"), (2, "uniform"))
    ]
    runs = [
        (topology, catalog, strategy)
        for topology in (tree, swapped)
        for catalog in catalogs
        for strategy in STRATEGIES
    ]
    forward = [optimize(chain_query(4), *run[:2], strategy=run[2]) for run in runs]
    backward = [
        optimize(chain_query(4), *run[:2], strategy=run[2]) for run in reversed(runs)
    ]
    assert forward == backward[::-1]
    # the two trees price the same stages differently
    assert forward[0].estimated_cost != forward[len(runs) // 2].estimated_cost


def _compiled(compile_stages):
    """``repr`` of the compiled stages, or the error a compile raised."""
    try:
        return repr(compile_stages())
    except ReproError as error:
        return type(error).__name__, str(error)


@given(data=st.data(), tree=shaped_trees(max_nodes=8))
@settings(max_examples=60, deadline=None)
def test_the_lockstep_search_compiles_what_the_per_order_search_compiles(data, tree):
    """Scoring a join step at once changes no choice: every strategy
    compiles the stages the one-order-at-a-time reference compiles, on
    any tree (a single node, routers under computes, asymmetric links)."""
    shape = data.draw(st.sampled_from(("chain-3", "chain-4", "star-2", "star-3")))
    query, make_catalog, width = QUERIES[shape]
    key_space = data.draw(st.sampled_from((2, 8, 64)))

    def drawn_catalog():
        return make_catalog(
            tree,
            rows=data.draw(st.integers(1, 60)),
            key_space=key_space,
            seed=data.draw(st.integers(0, 3)),
            policy=data.draw(st.sampled_from(("zipf", "uniform", "proportional"))),
            **width,
        )

    # one catalog places every relation alike; mixing several gives the
    # inputs different profiles and sizes
    catalog = drawn_catalog()
    catalog = {name: drawn_catalog()[name] for name in catalog}
    for strategy in STRATEGIES:
        found = _compiled(lambda: optimize(query, tree, catalog, strategy=strategy).stages)
        expected = _compiled(lambda: reference_stages(query, tree, catalog, strategy))
        assert found == expected
