"""The five benchmark workloads: topologies, inputs, warm-up, and the public
calls that are timed.

A workload is built once per set-up repeat (`setup`), hands out one list of
`Op`s per pass (`make_pass`, inputs derived from ``(seed, workload, pass)``),
and executes one op through the program's public API (`call`).  Nothing here
measures anything; `run.py` owns the clock.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import repro
from repro.analysis.serve import strip_report
from repro.parallel.pool import get_pool, shutdown_pools
from repro.plan.executor import execute_plan
from repro.plan.logical import chain_query, star_query
from repro.plan.optimizer import optimize
from repro.plan.relation import chain_catalog, star_catalog
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples
from repro.topology.artifacts import use_artifacts

#: Plan workloads refuse a join whose worst-case intermediate
#: (rows^(j+1) / key_space^j after j joins) exceeds this many rows: a
#: 4-relation chain at 20 000 rows / key_space 1024 reaches 1.5e8 and was
#: OOM-killed at 15 GiB while this benchmark was sized.
MAX_INTERMEDIATE_ROWS = 1_000_000


class SizeGuardError(Exception):
    """A plan op was sized past `MAX_INTERMEDIATE_ROWS`."""


def derive(seed: int, *parts) -> int:
    """A 31-bit seed that depends on every argument."""
    digest = hashlib.blake2b(repr((seed, parts)).encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "little") >> 1


def worst_intermediate_rows(rows: int, key_space: int, num_joins: int) -> float:
    """Largest expected intermediate of a left-deep plan over uniform keys."""
    return max(
        rows ** (j + 1) / key_space**j for j in range(1, num_joins + 1)
    )


@dataclass
class Op:
    """One public call: a task run, a plan query, or a graph run."""

    label: str  # the op's class, stable across passes, e.g. "sorting/wts"
    kind: str  # "task" | "plan" | "graph"
    data: object  # Distribution, or the catalog of a plan op
    task: str | None = None
    protocol: str | None = None
    query: object = None
    seed: int = 0
    worst_rows: float = 0.0  # plan ops: worst-case intermediate rows

    def check_size(self) -> None:
        if self.worst_rows > MAX_INTERMEDIATE_ROWS:
            raise SizeGuardError(
                f"{self.label} would build ~{self.worst_rows:.3g} intermediate "
                f"rows (cap {MAX_INTERMEDIATE_ROWS})"
            )

    def arrays(self):
        """The op's input arrays, in a deterministic order."""
        if self.kind == "plan":
            for name in sorted(self.data):
                yield self.data[name].rows()
        else:
            for tag in sorted(self.data.tags):
                yield self.data.relation(tag)


def input_elements(report) -> int:
    """Input elements of one finished op, for all three report types."""
    if hasattr(report, "input_size"):
        return report.input_size
    if hasattr(report, "num_edges"):
        return report.num_edges
    return sum(stage.input_size for stage in report.stages)


@dataclass(frozen=True)
class Sizes:
    """Everything that differs between the full grid and ``--smoke``."""

    serve_racks: tuple
    batch_racks: tuple
    rows: int  # serve/plan relation rows
    serve_pass: int  # queries per serve_mix pass
    serve_warmup: int
    serve_checked: int  # warm-up queries compared with cold twins
    batch_scale: float  # multiplies the batch op sizes
    warmup_scale: float  # batch warm-up pass, relative to batch_scale
    graph_edges: int
    graph_warmup_edges: int


FULL = Sizes(
    serve_racks=(12,) * 12,
    batch_racks=(8,) * 8,
    rows=200,
    serve_pass=64,
    serve_warmup=16,
    serve_checked=8,
    batch_scale=0.1,
    warmup_scale=1 / 4,
    graph_edges=12_000,
    graph_warmup_edges=2_000,
)

SMOKE = Sizes(
    serve_racks=(4,) * 4,
    batch_racks=(4,) * 4,
    rows=80,
    serve_pass=16,
    serve_warmup=8,
    serve_checked=8,
    batch_scale=0.01,
    warmup_scale=1 / 4,
    graph_edges=400,
    graph_warmup_edges=160,
)

KEY_SPACE = 1024
#: G(n,m) with n = m / 8, average degree 16: always five supersteps.  At the
#: generator's default degree 4 a graph takes 13 to 19 depending on its seed,
#: so the seed would pick the amount of work and not just the placement.
EDGES_PER_VERTEX = 8


class Workload:
    """Base: one topology, one stream of passes, one way to call."""

    name = ""
    #: Clear the content memos and collect garbage before every pass.
    #: False where warm state is the traffic being measured.
    fresh = False
    #: Whether ops go through an `EngineSession` (decides where the time
    #: between the harness call and the engine span is booked).
    uses_session = False

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tree = None
        self.session = None
        self.warm: list = []  # (op, report) of the set-up's warm-up ops
        self.pool_start_s = 0.0

    def build_tree(self):
        raise NotImplementedError

    def setup(self) -> None:
        """Build the topology and warm state, then run the warm-up ops."""
        self.tree = self.build_tree()
        self.start()
        self.warm = []
        for op in self.warmup_ops():
            op.check_size()
            self.warm.append((op, self.call(op)))

    def start(self) -> None:
        """Build what outlives a query: session, pinned catalog, pool."""

    def teardown(self) -> None:
        self.session = None
        self.warm = []

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def make_pass(self, k: int) -> list[Op]:
        raise NotImplementedError

    def call(self, op: Op, tracer=None):
        """Execute one op through the public API; returns its report."""
        raise NotImplementedError

    def check(self) -> list[tuple[str, bool]]:
        """Correctness pass outside the timed region: (label, ok) pairs."""
        return []

    def worker_pids(self) -> list[int]:
        return []


def serve_tree(sizes: Sizes):
    return repro.two_level(
        list(sizes.serve_racks), leaf_bandwidth=2, uplink_bandwidth=4
    )


def batch_tree(sizes: Sizes):
    racks = list(sizes.batch_racks)
    uplinks = [(1, 2, 4, 8)[i % 4] for i in range(len(racks))]
    return repro.two_level(racks, leaf_bandwidth=2, uplink_bandwidth=uplinks)


class _SessionWorkload(Workload):
    """Shared by the two workloads that serve from a warm `EngineSession`."""

    uses_session = True

    def build_tree(self):
        return serve_tree(self.sizes)

    def call(self, op: Op, tracer=None):
        if op.kind == "task":
            return self.session.run(op.task, op.data, seed=op.seed)
        if tracer is None:
            return self.session.run_plan(op.query, op.data, seed=op.seed)
        # Traced plan ops call the two halves of `session.run_plan`
        # themselves, because the program has no span around `optimize`.
        with use_artifacts(self.session.artifact_cache):
            with tracer.span("bench.optimize", category="bench.optimize"):
                physical = optimize(
                    op.query, self.tree, op.data, cache=self.session.plan_cache
                )
            return execute_plan(physical, self.tree, op.data, seed=op.seed)

    def plan_op(self, shape: str, width: int, catalog: dict, seed: int) -> Op:
        chain = shape == "chain"
        return Op(
            label=f"plan/{shape}-{width}",
            kind="plan",
            data=catalog,
            query=chain_query(width) if chain else star_query(width),
            seed=seed,
            worst_rows=worst_intermediate_rows(
                self.sizes.rows, KEY_SPACE, width - 1 if chain else width
            ),
        )

    def catalog(self, shape: str, width: int, seed: int) -> dict:
        make, count = (
            (chain_catalog, "num_relations")
            if shape == "chain"
            else (star_catalog, "num_satellites")
        )
        return make(
            self.tree,
            rows=self.sizes.rows,
            key_space=KEY_SPACE,
            seed=seed,
            policy="zipf",
            **{count: width},
        )


def groupby_sums_fit(data) -> bool:
    """Whether `groupby-aggregate` can run on a placement of the set
    generator.  Its values, read as (key, payload) tuples, have random 20-bit
    payloads, and the protocol ships each node's per-key sums encoded at that
    width: one placement in 2400 has a node with two tuples of one key whose
    payloads sum past it (seed 17, pass 8), and the op fails with a
    DistributionError.  Asking that the sums over the whole relation fit, as
    here, refuses one placement in 115 and needs no knowledge of the nodes."""
    keys, payloads = decode_tuples(data.relation("R"))
    _, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=payloads)
    return sums.max() < 1 << DEFAULT_PAYLOAD_BITS


class ServeMix(_SessionWorkload):
    """Warm session, repeated shapes: three task runs, then a cached plan."""

    name = "serve_mix"
    TASKS = ("set-intersection", "equijoin", "groupby-aggregate", "sorting")
    PLACEMENTS = ("zipf", "uniform", "proportional", "zipf")
    SHAPES = (("chain", 3), ("star", 2), ("chain", 4))

    def start(self) -> None:
        # One pinned catalog holds all three plan shapes (disjoint relation
        # names), so every plan query after the first of its shape hits.
        self.pinned = self.catalog("chain", 4, derive(self.seed, "serve", "catalog"))
        self.pinned.update(
            self.catalog("star", 2, derive(self.seed, "serve", "catalog"))
        )
        self.session = repro.EngineSession(self.tree, catalog=self.pinned)

    def placement(self, key, i: int, policy: str):
        """Placement `i` of pass `key`, drawn again where the group-by op
        could not run on it."""
        for attempt in itertools.count():
            data = repro.random_distribution(
                self.tree,
                r_size=self.sizes.rows,
                s_size=2 * self.sizes.rows,
                policy=policy,
                seed=derive(self.seed, "serve", key, i, attempt),
            )
            if groupby_sums_fit(data):
                return data

    def queries(self, key, count: int) -> list[Op]:
        placed = [
            self.placement(key, i, policy)
            for i, policy in enumerate(self.PLACEMENTS)
        ]
        ops = []
        tasks = plans = 0
        for j in range(count):
            seed = derive(self.seed, "serve", key, "query", j) % 7
            if j % 4 == 3:
                shape, width = self.SHAPES[plans % len(self.SHAPES)]
                ops.append(self.plan_op(shape, width, self.pinned, seed))
                plans += 1
            else:
                # rotate the pairing each lap so every task meets every
                # placement within 16 task queries
                lap, slot = divmod(tasks, len(self.TASKS))
                place = (slot + lap) % len(placed)
                ops.append(
                    Op(
                        label=f"task/{self.TASKS[slot]}/{self.PLACEMENTS[place]}-{place}",
                        kind="task",
                        task=self.TASKS[slot],
                        data=placed[place],
                        seed=seed,
                    )
                )
                tasks += 1
        return ops

    def warmup_ops(self) -> list[Op]:
        return self.queries("warmup", self.sizes.serve_warmup)

    def make_pass(self, k: int) -> list[Op]:
        return self.queries(k, self.sizes.serve_pass)

    def check(self) -> list[tuple[str, bool]]:
        results = []
        for op, warm in self.warm[: self.sizes.serve_checked]:
            if op.kind == "task":
                cold = repro.run(op.task, self.tree, op.data, seed=op.seed)
            else:
                cold = repro.run_plan(op.query, self.tree, op.data, seed=op.seed)
            results.append(
                (f"identity {op.label}", strip_report(cold) == strip_report(warm))
            )
        return results


class PlanCold(_SessionWorkload):
    """Same session, but every plan query brings a catalog never seen."""

    name = "plan_cold"
    fresh = True
    # The three shapes serve_mix hits, here as misses.  Four cheap compiles
    # (~0.25 s) to one chain-4 (~1.3 s): the median lies among the cheap ones
    # and the 95th percentile inside the chain-4 class, so neither sits on
    # the edge between two classes.  star-3 (2.0 s cold) is left out: a run
    # would hold five samples of it.
    SHAPES = (("chain", 3), ("star", 2), ("chain", 3), ("star", 2), ("chain", 4))

    def start(self) -> None:
        self.session = repro.EngineSession(self.tree)

    def warmup_ops(self) -> list[Op]:
        seed = derive(self.seed, "plan", "warmup")
        return [self.plan_op("chain", 3, self.catalog("chain", 3, seed), seed % 7)]

    def make_pass(self, k: int) -> list[Op]:
        ops = []
        for i, (shape, width) in enumerate(self.SHAPES):
            seed = derive(self.seed, "plan", k, i)
            ops.append(
                self.plan_op(shape, width, self.catalog(shape, width, seed), seed % 7)
            )
        return ops


class BatchFresh(Workload):
    """One-shot `repro.run` over large fresh inputs: the data plane."""

    name = "batch_fresh"
    fresh = True
    backend: str | None = None
    #: (task, protocol, generator, r_size, s_size) at batch_scale 1
    OPS = (
        ("sorting", "wts", "set", 4_000_000, 0),
        ("sorting", "terasort", "set", 4_000_000, 0),
        ("set-intersection", "tree", "set", 200_000, 800_000),
        ("set-intersection", "uniform-hash", "set", 200_000, 800_000),
        ("equijoin", "tree", "tuple", 300_000, 300_000),
        ("groupby-aggregate", "tree", "tuple", 200_000, 0),
        ("cartesian-product", "tree", "set", 200_000, 200_000),
    )

    def build_tree(self):
        return batch_tree(self.sizes)

    def run_kwargs(self) -> dict:
        return {}

    def ops_at(self, key, scale: float) -> list[Op]:
        ops = []
        for task, protocol, generator, r_size, s_size in self.OPS:
            if self.backend not in (None, *repro.get_protocol(task, protocol).backends):
                continue
            make = (
                repro.random_distribution
                if generator == "set"
                else repro.random_tuple_distribution
            )
            # Every op gets an input of its own, so no op finds the memo
            # entries of the one before it.  Seeded by "batch", not by
            # self.name: batch_process must see the inputs batch_fresh sees.
            seed = derive(self.seed, "batch", key, task, protocol)
            ops.append(
                Op(
                    label=f"{task}/{protocol}",
                    kind="task",
                    task=task,
                    protocol=protocol,
                    data=make(
                        self.tree,
                        r_size=max(1, int(r_size * scale)),
                        s_size=int(s_size * scale),
                        policy="zipf",
                        seed=seed,
                    ),
                    seed=seed % 7,
                )
            )
        return ops

    def warmup_ops(self) -> list[Op]:
        return self.ops_at("warmup", self.sizes.batch_scale * self.sizes.warmup_scale)

    def make_pass(self, k: int) -> list[Op]:
        return self.ops_at(k, self.sizes.batch_scale)

    def call(self, op: Op, tracer=None):
        return repro.run(
            op.task,
            self.tree,
            op.data,
            protocol=op.protocol,
            seed=op.seed,
            **self.run_kwargs(),
        )


class BatchProcess(BatchFresh):
    """The batch_fresh ops on the shared-memory worker-process substrate."""

    name = "batch_process"
    backend = "process"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.num_workers = min(2, os.cpu_count() or 1)

    def run_kwargs(self) -> dict:
        return {"backend": "process", "num_workers": self.num_workers}

    def start(self) -> None:
        started = perf_counter()
        self.pool = get_pool(self.num_workers)
        self.pool_start_s = perf_counter() - started

    def teardown(self) -> None:
        super().teardown()
        self.pool = None
        shutdown_pools()

    def worker_pids(self) -> list[int]:
        return self.pool.pids

    def check(self) -> list[tuple[str, bool]]:
        results = []
        for op, parallel in self.warm:
            sim = repro.run(
                op.task, self.tree, op.data, protocol=op.protocol, seed=op.seed
            )
            same = (sim.cost, sim.rounds) == (parallel.cost, parallel.rounds)
            results.append((f"sim-twin {op.label}", same))
        return results


class GraphCC(Workload):
    """Connected components: supersteps that re-group a static key set."""

    name = "graph_cc"

    def build_tree(self):
        return batch_tree(self.sizes)

    def graph_op(self, key, edges: int) -> Op:
        seed = derive(self.seed, "graph", key)
        return Op(
            label="graph/connected-components",
            kind="graph",
            data=repro.random_graph_distribution(
                self.tree,
                num_edges=edges,
                num_vertices=edges // EDGES_PER_VERTEX,
                policy="zipf",
                seed=seed,
            ),
            protocol="tree",
            seed=seed % 7,
        )

    def warmup_ops(self) -> list[Op]:
        return [self.graph_op("warmup", self.sizes.graph_warmup_edges)]

    def make_pass(self, k: int) -> list[Op]:
        return [self.graph_op(k, self.sizes.graph_edges)]

    def call(self, op: Op, tracer=None):
        return repro.run_components(
            self.tree, op.data, protocol=op.protocol, seed=op.seed
        )


WORKLOADS = {
    cls.name: cls for cls in (ServeMix, PlanCold, BatchFresh, GraphCC, BatchProcess)
}
