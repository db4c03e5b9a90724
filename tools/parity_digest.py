#!/usr/bin/env python3
"""One digest of everything a fixed grid of runs makes observable.

Runs every registered (task, protocol) and every task's lower bound on
six trees, two instance shapes (equal and unequal relation sizes, a
small and a larger graph), two placement policies and three seeds, plus
the intersection, equi-join and group-by protocols on one instance
whose elements reach ``±2**62`` (too wide for the packed sort of the
local kernels, so they take the full-width path), a chain-3 query
plan, the optimizer's stage choices (chain-3, filtered and group-by
queries; chain-4 and star-3 under every strategy) and two float sums
whose result shows their order, and prints one BLAKE2b digest over:

* each report without its wall times: cost, rounds, bound value and
  description, and the protocol's meta;
* each task's bound on each instance, per-link values included;
* each protocol's outputs, dict key order included;
* the per-round link loads of each run's ledger;
* after every round of every cluster, what the store holds, in the
  store's own order (node, tag, length and a digest of the elements);
* the task verifier's verdict (``ok`` or its message) on each answer,
  and on fixed corruptions of it: an intersection with one element
  dropped, with a non-member added and with one element emitted at two
  nodes; a join whose ``pair_bounds`` end one pair short or over.

A run the protocol refuses (a star-only protocol on a non-star) is
digested by its error type.  Two checkouts, or two hash seeds, that
print the same digest made the same observable choices on the grid::

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/parity_digest.py
    PYTHONHASHSEED=1 PYTHONPATH=src python tools/parity_digest.py --per-run

``--per-run`` prints one ``label digest`` line per run before the
total, for a ``diff`` of two outputs.  Standard library and NumPy only.
"""

import argparse
import dataclasses
import hashlib
import sys
from functools import partial
from collections.abc import Mapping

import numpy as np

import repro
from repro.context import use
from repro.data.distribution import Distribution
from repro.engine import run_with_result
from repro.errors import ProtocolError, ReproError
from repro.plan import (
    Filter,
    GroupBy,
    Join,
    Scan,
    chain_catalog,
    chain_query,
    optimize,
    star_catalog,
    star_query,
)
from repro.plan.cost import estimate_tree_cost
from repro.plan.optimizer import STRATEGIES
from repro.queries.join import JoinOutputs
from repro.registry import get_task

TREES = (
    lambda: repro.star(4),
    lambda: repro.two_level([3, 3]),
    lambda: repro.two_level([2, 3, 4], uplink_bandwidth=0.5),
    lambda: repro.caterpillar(5, 2),
    lambda: repro.star(3, [1, 2, 2]),
    lambda: repro.two_level([3, 4, 2], uplink_bandwidth=[1, 2, 4]),
)
POLICIES = ("uniform", "zipf")
SEEDS = (0, 1, 2)
SIZE = 60  # elements of the smaller relation
#: Per instance shape, ``(|R|, |S|)`` of the relation tasks and ``(edges,
#: vertices)`` of the graph tasks.  Equal sizes suit the star protocols;
#: with ``|S| = 3|R|`` a link or a star leaf can hold ``|R|`` on both
#: sides, so the β paths run (several TreeIntersect blocks, StarIntersect
#: and unequal-star β leaves).
SHAPES = (
    ("even", (SIZE, SIZE), (120, None)),
    ("skewed", (SIZE, 3 * SIZE), (400, 90)),
)


def _instance(task: str, tree, policy: str, seed: int, relations, graph):
    if task in ("connected-components", "triangle-count"):
        edges, vertices = graph
        return repro.random_graph_distribution(
            tree, num_edges=edges, num_vertices=vertices, policy=policy, seed=seed
        )
    r_size, s_size = relations
    if task in ("equijoin", "groupby-aggregate"):
        return repro.random_tuple_distribution(
            tree, r_size=r_size, s_size=s_size, policy=policy, seed=seed
        )
    return repro.random_distribution(
        tree, r_size=r_size, s_size=s_size, policy=policy, seed=seed
    )


def _encode(value) -> bytes:
    """A canonical byte form: containers in their own order, arrays by
    dtype, shape and contents, other objects by type and attributes,
    keys naming a wall time dropped."""
    if isinstance(value, Mapping):
        return b"{" + b",".join(
            _encode(k) + b":" + _encode(v)
            for k, v in value.items()
            if "wall" not in str(k)
        ) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(map(_encode, value)) + b"]"
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        return repr((array.dtype.str, array.shape)).encode() + array.tobytes()
    if hasattr(value, "__dict__"):
        return type(value).__name__.encode() + _encode(vars(value))
    return repr(value).encode()


class _StoreRecorder:
    """An auditor that checks nothing: after every round it records
    what the cluster's store holds, in the store's order."""

    enabled = True

    def __init__(self) -> None:
        self.rounds: list = []

    def before_round(self, cluster) -> None:
        return None

    def check_round(self, cluster, context, before) -> None:
        held = []
        for node, tags in cluster._storage.sizes().items():
            for tag, length in tags.items():
                data = cluster.local(node, tag).tobytes()
                held.append((node, tag, length, hashlib.blake2b(data).hexdigest()))
        self.rounds.append(held)

    def check_bound(self, **_) -> None:
        return None


def _protocol_runs():
    protocols: dict = {}
    for spec in repro.list_protocols():
        protocols.setdefault(spec.task, []).append(spec)
    for make_tree in TREES:
        tree = make_tree()
        for task, specs in protocols.items():
            for shape, relations, graph in SHAPES:
                for policy in POLICIES:
                    for seed in SEEDS:
                        where = f"{tree.name} {shape} {policy} {seed}"
                        dist = _instance(task, tree, policy, seed, relations, graph)
                        yield f"{task} bound {where}", partial(_bound, tree, task, dist)
                        for spec in specs:
                            yield f"{task}/{spec.name} {where}", partial(
                                _run, tree, spec, dist, seed
                            )


def _bound(tree, task: str, distribution):
    """The task's whole lower bound: value, bottleneck, per-link values."""
    try:
        return repr(get_task(task).lower_bound(tree, distribution))
    except ReproError as error:
        return _refusal(error)


def _refusal(error: ReproError) -> tuple:
    return ("refused", type(error).__name__)


def _run(tree, spec, distribution, seed: int, **opts):
    recorder = _StoreRecorder()
    try:
        with use(auditor=recorder):
            report, result = run_with_result(
                spec.task, tree, distribution, protocol=spec.name, seed=seed, **opts
            )
    except ReproError as error:
        return _refusal(error)
    loads = [result.ledger.link_loads(i) for i in range(result.ledger.num_rounds)]
    verdicts = [
        (name, _verdict(tree, spec.task, distribution, result, outputs, opts))
        for name, outputs in _corruptions(tree, spec.task, distribution, result.outputs)
    ]
    return report.to_dict(), result.outputs, loads, recorder.rounds, verdicts


def _verdict(tree, task: str, distribution, result, outputs, opts: dict) -> str:
    """What the task's verifier says of ``result`` holding ``outputs``."""
    try:
        get_task(task).verify(
            tree, distribution, dataclasses.replace(result, outputs=outputs), **opts
        )
    except ProtocolError as error:
        return str(error)
    return "ok"


def _corruptions(tree, task: str, distribution, outputs):
    """The answer itself, then fixed corruptions of it: ``(name, outputs)``."""
    yield "answer", outputs
    if task == "set-intersection":
        inputs = (distribution.relation("R"), distribution.relation("S"))
        outside = max(int(relation.max(initial=0)) for relation in inputs) + 1
        node = next(iter(outputs), tree.compute_nodes[0])
        held = outputs.get(node, np.empty(0, np.int64))
        yield "non-member", {**outputs, node: np.append(held, outside)}
        full = [v for v, elements in outputs.items() if len(elements)]
        if full:
            first, last = full[0], list(outputs)[-1]
            yield "dropped", {**outputs, first: outputs[first][1:]}
            if last != first:
                twice = np.append(outputs[last], outputs[first][0])
                yield "at two nodes", {**outputs, last: twice}
    elif task == "equijoin":
        joined = JoinOutputs.of(outputs)
        for shift in (-1, 1):
            bounds = [*joined.pair_bounds[:-1], joined.pair_bounds[-1] + shift]
            yield f"pair_bounds {shift:+d}", JoinOutputs(
                joined.nodes, bounds, joined.run_bounds, joined.pairs
            )


def _wide_runs():
    """Every intersection, equi-join and group-by protocol on one
    instance too wide for a packed sort: set elements reaching
    ``±2**62``, and tuples whose keys, under one payload bit, span
    ``[0, 2**61)``: the widest keys a tuple encodes."""
    tree = repro.star(4)
    rng = np.random.default_rng(5)
    offsets = np.arange(0, 61, 15)  # 15 elements per node
    values = np.unique(rng.integers(-(2**62), 2**62, 98, endpoint=True))
    values = rng.permutation(np.concatenate([values, [-(2**62), 2**62]]))
    keys = rng.integers(0, 2**61, 20)
    keys[:2] = 0, 2**61 - 1
    tuples = {
        tag: ((rng.choice(keys, 60) << 1) | rng.integers(0, 2, 60), offsets)
        for tag in ("R", "S")
    }
    sets = {"R": (values[:60], offsets), "S": (values[40:], offsets)}
    instances = {
        "set-intersection": (sets, {}),
        "equijoin": (tuples, {"payload_bits": 1}),
        # min of one-bit payloads stays one bit; a sum would not
        "groupby-aggregate": (tuples, {"payload_bits": 1, "op": "min"}),
    }
    for spec in repro.list_protocols():
        if spec.task in instances:
            columns, opts = instances[spec.task]
            dist = Distribution.from_columns(tree.compute_nodes, columns)
            yield f"wide {spec.task}/{spec.name} {tree.name}", partial(
                _run, tree, spec, dist, 0, **opts
            )


def _plan_runs():
    for make_tree in TREES:
        tree = make_tree()
        catalog = chain_catalog(
            tree, num_relations=3, rows=SIZE, key_space=32, seed=3, policy="zipf"
        )
        yield f"plan chain-3 {tree.name}", partial(_plan, tree, catalog)
        chain = chain_query(3)
        kept = Filter(Scan("R0"), "x0", "<=", 20)
        filtered = Join((kept, Scan("R1"), Scan("R2")), chain.conditions)
        for name, query in (
            ("chain-3", chain),
            ("filtered", filtered),
            ("groupby", GroupBy(kept, key="x1", value="x0")),
        ):
            for strategy in ("optimized", "worst-order"):
                yield f"optimize {name} {strategy} {tree.name}", partial(
                    _stages, query, tree, catalog, strategy
                )
        # three and four join steps, every strategy (gather's written order too)
        for name, query, make_catalog, width in (
            ("chain-4", chain_query(4), chain_catalog, {"num_relations": 4}),
            ("star-3", star_query(3), star_catalog, {"num_satellites": 3}),
        ):
            wide = make_catalog(
                tree, rows=SIZE, key_space=32, seed=3, policy="zipf", **width
            )
            for strategy in STRATEGIES:
                yield f"optimize {name} {strategy} {tree.name}", partial(
                    _stages, query, tree, wide, strategy
                )
        yield f"float sums {tree.name}", partial(_float_sums, tree)


def _stages(query, tree, catalog, strategy: str) -> str:
    return repr(optimize(query, tree, catalog, strategy=strategy).stages)


def _plan(tree, catalog):
    recorder = _StoreRecorder()
    with use(auditor=recorder):
        report, output = repro.run_plan(
            chain_query(3), tree, catalog, seed=4, keep_output=True
        )
    return (
        report.to_dict(), output.node_order, output.offsets, output.rows(), recorder.rounds
    )


def _float_sums(tree):
    """``2**53 + 1.0`` rounds back to ``2**53``: these sums differ with
    the order they run in."""
    nodes = sorted(tree.compute_nodes, key=str)
    middle = len(nodes) // 2
    profile = {v: 2.0**53 if i == middle else 1.0 for i, v in enumerate(nodes)}
    return tree.side_weights(profile), estimate_tree_cost(tree, [profile])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--per-run", action="store_true", help="print one digest line per run"
    )
    args = parser.parse_args(argv)
    total = hashlib.blake2b(digest_size=16)
    count = refused = 0
    for source in (_protocol_runs(), _wide_runs(), _plan_runs()):
        for label, produce in source:
            outcome = produce()
            refused += outcome[0] == "refused"
            encoded = _encode(outcome)
            total.update(label.encode() + b"\n" + encoded + b"\n")
            count += 1
            if args.per_run:
                print(label, hashlib.blake2b(encoded, digest_size=8).hexdigest())
    print(f"parity digest {total.hexdigest()} over {count} runs ({refused} refused)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
