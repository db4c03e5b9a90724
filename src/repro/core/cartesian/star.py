"""StarCartesianProduct (Algorithm 4).

If some node already holds more than half the data, every other node
ships its data there — Lemma 7 shows the Theorem 3 bound is then within a
factor two of this strategy.  Otherwise the G-dagger of the star points
every compute node at the hub and the weighted HyperCube is optimal.
"""

from __future__ import annotations

from repro.core.cartesian.routing import gather_all_pairs
from repro.core.cartesian.whc import whc_cartesian_product
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology, node_sort_key


@register_protocol(
    task="cartesian-product",
    name="star",
    topology="star",
    description="StarCartesianProduct (Algorithm 4) on a symmetric star",
)
def star_cartesian_product(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    r_tag: str = "R",
    s_tag: str = "S",
    materialize: bool = False,
) -> ProtocolResult:
    """Run Algorithm 4 on a symmetric star; requires ``|R| == |S|``."""
    tree.require_symmetric("StarCartesianProduct")
    if not tree.is_star():
        raise ProtocolError(
            "StarCartesianProduct needs a star; use tree_cartesian_product"
        )
    distribution.validate_for(tree)
    r_total = distribution.total(r_tag)
    s_total = distribution.total(s_tag)
    if r_total != s_total:
        raise ProtocolError(
            f"Algorithm 4 handles |R| == |S| (got {r_total} vs {s_total}); "
            "use generalized_star_cartesian_product for the unequal case"
        )
    sizes = {
        v: distribution.size(v, r_tag) + distribution.size(v, s_tag)
        for v in tree.compute_nodes
    }
    total = sum(sizes.values())
    if total == 0:
        cluster = Cluster(tree, distribution)
        outputs = {v: {"num_pairs": 0} for v in tree.compute_nodes}
        return ProtocolResult.from_ledger(
            "star-cartesian", cluster.ledger, outputs=outputs,
            meta={"strategy": "empty"},
        )

    heaviest = max(sorted(sizes, key=node_sort_key), key=lambda v: sizes[v])
    if sizes[heaviest] > total / 2:
        cluster = Cluster(tree, distribution)
        outputs = gather_all_pairs(
            cluster, heaviest, r_tag=r_tag, s_tag=s_tag, materialize=materialize
        )
        return ProtocolResult.from_ledger(
            "star-cartesian",
            cluster.ledger,
            outputs=outputs,
            meta={"strategy": "gather", "target": heaviest},
        )

    result = whc_cartesian_product(
        tree,
        distribution,
        r_tag=r_tag,
        s_tag=s_tag,
        materialize=materialize,
    )
    result.protocol = "star-cartesian"
    result.meta["strategy"] = "weighted-hypercube"
    return result
