"""Initial data placement across compute nodes.

A :class:`Distribution` records, for each compute node, the fragment of
each relation it initially holds (the paper's ``X_0(v)``), and exposes the
statistics the algorithms are allowed to know in advance: the topology,
the link bandwidths, and the per-node, per-relation cardinalities
(Section 2, "Computation").  Elements are 64-bit integers — the paper's
sets are drawn from an abstract ordered domain, and integers exercise
exactly the same code paths while keeping hashing and sorting vectorised.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.errors import DistributionError
from repro.topology.tree import NodeId, TreeTopology, node_sort_key
from repro.util.grouping import sorted_unique


_EMPTY = np.empty(0, np.int64)
_EMPTY.setflags(write=False)


def _as_fragment(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise DistributionError(
            f"relation fragments must be one-dimensional, got shape {array.shape}"
        )
    view = array.view()
    view.setflags(write=False)
    return view


class Distribution:
    """Per-node relation fragments, with the statistics protocols may use.

    Parameters
    ----------
    placements:
        ``{node: {relation_tag: fragment}}``.  Fragments are 1-D integer
        arrays (anything ``np.asarray`` accepts).  Nodes with no data may
        be omitted or mapped to empty dicts.

    The container is immutable: fragments are stored and served as
    read-only views (never copied — the zero-copy handoff between plan
    stages and cluster seeding rides on this), and derivation methods
    (:meth:`remap`, :meth:`restrict`) return new instances sharing the
    same underlying arrays.
    """

    def __init__(
        self, placements: Mapping[NodeId, Mapping[str, Iterable[int]]]
    ) -> None:
        self._fragments: dict[NodeId, dict[str, np.ndarray]] = {}
        tags: set[str] = set()
        for node, relations in placements.items():
            node_fragments: dict[str, np.ndarray] = {}
            for tag, values in relations.items():
                fragment = _as_fragment(values)
                node_fragments[str(tag)] = fragment
                tags.add(str(tag))
            self._fragments[node] = node_fragments
        self._tags = frozenset(tags)
        # The container is immutable, so every size statistic is fixed
        # here: per tag (``None`` = all relations) the per-node sizes,
        # zero-size nodes included, and their total.
        self._sizes: dict[str | None, dict[NodeId, int]] = {
            tag: dict.fromkeys(self._fragments, 0) for tag in (None, *tags)
        }
        for node, node_fragments in self._fragments.items():
            for tag, fragment in node_fragments.items():
                self._sizes[tag][node] = len(fragment)
                self._sizes[None][node] += len(fragment)
        self._totals = {
            tag: sum(sizes.values()) for tag, sizes in self._sizes.items()
        }

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def tags(self) -> frozenset:
        """The relation names present anywhere in the placement."""
        return self._tags

    @property
    def nodes(self) -> frozenset:
        """Nodes that appear in the placement (possibly with empty data)."""
        return frozenset(self._fragments)

    def fragment(self, node: NodeId, tag: str) -> np.ndarray:
        """The fragment of relation ``tag`` initially on ``node``.

        Returned as a **read-only zero-copy view** of the stored column;
        callers that need to mutate must ``.copy()`` explicitly.

        Tags are stored under their string form (``__init__`` and the
        cluster both normalize with ``str``), so lookups normalize too —
        a non-string tag must find the data it was stored under, not
        silently read as empty.
        """
        return self._fragments.get(node, {}).get(str(tag), _EMPTY)

    def _sizes_of(self, tag: str | None) -> dict:
        known = self._sizes.get(tag if tag is None else str(tag))
        return dict.fromkeys(self._fragments, 0) if known is None else known

    def size(self, node: NodeId, tag: str | None = None) -> int:
        """``|R_v|`` for one relation, or ``N_v`` summed over relations."""
        return self._sizes_of(tag).get(node, 0)

    def sizes(self, tag: str | None = None) -> dict:
        """Per-node sizes as a plain dict (zero-size nodes included)."""
        return dict(self._sizes_of(tag))

    def total(self, tag: str | None = None) -> int:
        """Total number of elements, for one relation or overall (``N``)."""
        return self._totals.get(tag if tag is None else str(tag), 0)

    def relation(self, tag: str) -> np.ndarray:
        """All elements of relation ``tag``, concatenated in node order."""
        tag = str(tag)
        parts = [
            self._fragments[node].get(tag, np.empty(0, np.int64))
            for node in sorted(self._fragments, key=node_sort_key)
        ]
        if not parts:
            return np.empty(0, np.int64)
        return np.concatenate(parts)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate_for(self, tree: TreeTopology) -> None:
        """Check the placement only uses compute nodes of ``tree``."""
        strays = self.nodes - tree.compute_nodes
        nonempty_strays = [n for n in strays if self.size(n) > 0]
        if nonempty_strays:
            raise DistributionError(
                "data placed on non-compute nodes: "
                f"{sorted(map(str, nonempty_strays))}"
            )

    def require_partition(self, tag: str) -> None:
        """Check relation ``tag`` has no element on two nodes (Section 2).

        The model assumes the initial fragments partition the input with
        no duplication; set-valued tasks additionally need global element
        uniqueness, which this enforces.
        """
        full = self.relation(tag)
        if len(sorted_unique(full)) != len(full):
            raise DistributionError(
                f"relation {tag!r} contains duplicated elements; initial "
                "fragments must partition a set"
            )

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #

    def remap(self, node_map: Mapping[NodeId, NodeId]) -> "Distribution":
        """Relocate fragments according to ``node_map`` (for normalization).

        Nodes not mentioned in ``node_map`` keep their placement.  Two old
        nodes must not map to the same new node.
        """
        targets = [node_map.get(n, n) for n in self._fragments]
        if len(set(targets)) != len(targets):
            raise DistributionError("node_map merges two placements")
        return Distribution(
            {
                node_map.get(node, node): dict(relations)
                for node, relations in self._fragments.items()
            }
        )

    def restrict(self, tags: Iterable[str]) -> "Distribution":
        """Keep only the given relations."""
        keep = {str(t) for t in tags}
        return Distribution(
            {
                node: {
                    tag: fragment
                    for tag, fragment in relations.items()
                    if tag in keep
                }
                for node, relations in self._fragments.items()
            }
        )

    def with_fragment(
        self, node: NodeId, tag: str, values: Iterable[int]
    ) -> "Distribution":
        """Return a new instance with one fragment replaced.

        Unchanged fragments are shared (read-only), not copied.
        """
        updated: dict = {
            n: dict(relations) for n, relations in self._fragments.items()
        }
        updated.setdefault(node, {})[str(tag)] = _as_fragment(values)
        return Distribution(updated)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        """A one-line-per-node summary of the placement."""
        lines = []
        for node in sorted(self._fragments, key=node_sort_key):
            counts = ", ".join(
                f"|{tag}_v|={len(fragment)}"
                for tag, fragment in sorted(self._fragments[node].items())
            )
            lines.append(f"{node}: {counts or 'empty'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Distribution(nodes={len(self._fragments)}, "
            f"tags={sorted(self._tags)}, total={self.total()})"
        )
