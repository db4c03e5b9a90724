"""Topology-aware graph analytics on the protocol substrate.

The paper's protocols are one-shot relational primitives; the dominant
related line of work (Andoni et al., Behnezhad et al.) applies
massively-parallel models to *iterative graph* computation.  This
package opens that workload family on the same cost model:

- **`model`** — edges as packed 64-bit ``(src, dst)`` elements and
  :class:`PlacedGraph`, the per-node edge placement;
- **`iterate`** — :class:`SuperstepDriver`, which runs a workload's
  supersteps as rounds of one cluster and ledger, one report row per
  step, and the facades' :class:`~repro.report.GraphRunReport`;
- **`components`** — hash-to-min connected components (registered task
  ``connected-components`` with ``tree`` / ``uniform-hash`` /
  ``gather`` protocols);
- **`triangles`** — triangle counting compiled as two equi-join stages
  through the query planner (registered task ``triangle-count``);
- **`degrees`** — degree tables reusing the registered
  ``groupby-aggregate`` protocols.

Quick start::

    import repro
    from repro.graphs import run_components

    tree = repro.two_level([4, 4], uplink_bandwidth=2.0)
    dist = repro.random_graph_distribution(
        tree, num_edges=2_000, policy="zipf", seed=0
    )
    report = run_components(tree, dist)          # GraphRunReport
    print(report.summarize())

or, through the engine, ``repro.run("connected-components", tree, dist)``.
"""

from repro.graphs.model import (
    DEFAULT_EDGE_TAG,
    MAX_VERTICES,
    VERTEX_BITS,
    PlacedGraph,
    canonical_edges,
    decode_edges,
    encode_edges,
)
from repro.graphs.iterate import SuperstepDriver
from repro.graphs.components import (
    components_lower_bound,
    gather_connected_components,
    run_components,
    tree_connected_components,
    uniform_hash_connected_components,
)
from repro.graphs.triangles import (
    run_triangles,
    triangle_catalog,
    triangle_query,
    triangles_lower_bound,
)
from repro.graphs.degrees import incidence_distribution, run_degrees

__all__ = [
    "DEFAULT_EDGE_TAG",
    "MAX_VERTICES",
    "VERTEX_BITS",
    "PlacedGraph",
    "canonical_edges",
    "decode_edges",
    "encode_edges",
    "SuperstepDriver",
    "components_lower_bound",
    "gather_connected_components",
    "run_components",
    "tree_connected_components",
    "uniform_hash_connected_components",
    "run_triangles",
    "triangle_catalog",
    "triangle_query",
    "triangles_lower_bound",
    "run_degrees",
    "incidence_distribution",
]
