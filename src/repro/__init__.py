"""topoMPC — topology-aware massively parallel computation.

A faithful, executable reproduction of *"Algorithms for a Topology-aware
Massively Parallel Computation Model"* (Hu, Koutris, Blanas — PODS 2021):
the cost model of Blanas et al. as a simulator, the paper's algorithms
and lower bounds for set intersection, cartesian product and sorting on
symmetric tree networks, topology-agnostic baselines, and an experiment
harness.

Quick start::

    import repro

    tree = repro.two_level([4, 4], uplink_bandwidth=2.0)
    dist = repro.random_distribution(tree, r_size=1_000, s_size=5_000,
                                     policy="zipf", seed=0)
    report = repro.run("set-intersection", tree, dist)
    print(report.cost, report.lower_bound, report.ratio)

Every protocol lives in a central catalog (``repro.list_protocols()``,
``python -m repro protocols``); ``repro.run(task, ...)`` dispatches
through it and ``repro.run_many(plans)`` evaluates whole grids, in
this process or (``workers=n``) on a pool of worker processes.

See ``examples/`` for complete scenarios and DESIGN.md for the module map.
"""

from repro.errors import (
    AnalysisError,
    DistributionError,
    PackingError,
    PlanError,
    ProtocolError,
    ReproError,
    TopologyError,
)
from repro.topology import (
    Dagger,
    PathOracle,
    TreeTopology,
    ascii_tree,
    build_dagger,
    caterpillar,
    fat_tree,
    from_parent_map,
    mpc_star,
    normalize,
    optimal_cover,
    random_tree,
    star,
    two_level,
)
from repro.data import (
    Distribution,
    adversarial_sorted_distribution,
    distribute,
    make_set_pair,
    make_sort_input,
    place_proportional,
    place_single_heavy,
    place_uniform,
    place_zipf,
    random_distribution,
    random_tuple_distribution,
)
from repro.data.generators import (
    gnm_random_graph,
    planted_components_graph,
    powerlaw_graph,
    random_graph_distribution,
)
from repro.sim import Cluster, CostLedger, ProtocolResult
from repro.core.common import LowerBound
from repro.core.intersection import (
    balanced_partition,
    intersection_lower_bound,
    star_intersect,
    tree_intersect,
)
from repro.core.cartesian import (
    cartesian_lower_bound,
    generalized_star_cartesian_product,
    unequal_cartesian_lower_bound,
    star_cartesian_product,
    tree_cartesian_product,
    whc_cartesian_product,
)
from repro.core.sorting import (
    sorting_lower_bound,
    terasort,
    verify_sorted_output,
    weighted_terasort,
)
from repro.baselines import (
    classic_hypercube_cartesian_product,
    uniform_hash_intersect,
)
from repro.queries import (
    decode_tuples,
    encode_tuples,
    equijoin_lower_bound,
    tree_equijoin,
    tree_groupby_aggregate,
)
from repro.registry import (
    ProtocolSpec,
    TaskSpec,
    get_protocol,
    get_task,
    list_protocols,
    protocols_for,
    register_protocol,
    register_task,
    tasks,
)
from repro.engine import RunPlan, run, run_many, run_plan
from repro.topology.artifacts import (
    ArtifactCache,
    TopologyArtifacts,
    use_artifacts,
)
from repro.plan.optimizer import PlanCache
from repro.session import EngineSession
from repro.graphs import (
    PlacedGraph,
    SuperstepDriver,
    decode_edges,
    encode_edges,
    run_components,
    run_degrees,
    run_triangles,
)
from repro.obs import (
    auditing,
    chrome_trace,
    collecting,
    get_tracer,
    span_metrics,
    tracing,
    write_chrome_trace,
)
from repro.report import GraphRunReport, PlanReport
from repro.analysis import RunReport, summarize_reports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "TopologyError",
    "DistributionError",
    "ProtocolError",
    "PackingError",
    "AnalysisError",
    "PlanError",
    # topology
    "TreeTopology",
    "star",
    "mpc_star",
    "two_level",
    "fat_tree",
    "caterpillar",
    "random_tree",
    "from_parent_map",
    "normalize",
    "build_dagger",
    "optimal_cover",
    "Dagger",
    "PathOracle",
    "ascii_tree",
    # data
    "Distribution",
    "make_set_pair",
    "make_sort_input",
    "distribute",
    "place_uniform",
    "place_zipf",
    "place_single_heavy",
    "place_proportional",
    "random_distribution",
    "adversarial_sorted_distribution",
    "random_tuple_distribution",
    # simulator
    "Cluster",
    "CostLedger",
    "ProtocolResult",
    "LowerBound",
    # algorithms
    "intersection_lower_bound",
    "star_intersect",
    "tree_intersect",
    "balanced_partition",
    "cartesian_lower_bound",
    "star_cartesian_product",
    "tree_cartesian_product",
    "whc_cartesian_product",
    "generalized_star_cartesian_product",
    "unequal_cartesian_lower_bound",
    "sorting_lower_bound",
    "terasort",
    "weighted_terasort",
    "verify_sorted_output",
    # baselines
    "uniform_hash_intersect",
    "classic_hypercube_cartesian_product",
    # relational operators (the paper's future-work direction)
    "encode_tuples",
    "decode_tuples",
    "tree_equijoin",
    "equijoin_lower_bound",
    "tree_groupby_aggregate",
    # registry + engine
    "ProtocolSpec",
    "TaskSpec",
    "register_protocol",
    "register_task",
    "get_protocol",
    "get_task",
    "protocols_for",
    "list_protocols",
    "tasks",
    "run",
    "run_many",
    "RunPlan",
    # session / serving layer
    "EngineSession",
    "ArtifactCache",
    "TopologyArtifacts",
    "use_artifacts",
    "PlanCache",
    # query planner (repro.plan has the full subsystem API)
    "run_plan",
    "PlanReport",
    # graph analytics (repro.graphs has the full subsystem API)
    "PlacedGraph",
    "SuperstepDriver",
    "encode_edges",
    "decode_edges",
    "run_components",
    "run_triangles",
    "run_degrees",
    "GraphRunReport",
    "gnm_random_graph",
    "powerlaw_graph",
    "planted_components_graph",
    "random_graph_distribution",
    # observability (repro.obs has the full subsystem API)
    "tracing",
    "collecting",
    "auditing",
    "get_tracer",
    "chrome_trace",
    "span_metrics",
    "write_chrome_trace",
    # analysis
    "RunReport",
    "summarize_reports",
]
