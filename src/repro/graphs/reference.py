"""Single-machine reference implementations for the graph tasks.

They run on the concatenated global edge list and are deliberately
simple: union-find for connectivity, sorted-adjacency intersection for
triangles, ``bincount`` for degrees.  The triangle count is the
``triangle-count`` run verifier's ground truth.  The union-find is not
a run verifier (connectivity runs are checked with the array kernel
:func:`repro.util.components.component_roots`); it is that kernel's
test oracle and the examples' independent check.
"""

from __future__ import annotations

import numpy as np


def reference_components(edges: np.ndarray) -> dict:
    """Connected components by union-find: ``{vertex: min vertex label}``.

    Only non-isolated vertices (endpoints of some edge) appear.  The
    canonical label of a component is its minimum vertex id — the fixed
    point hash-to-min label propagation converges to, so protocol
    outputs can be compared exactly.
    """
    array = np.asarray(edges, dtype=np.int64)
    if not len(array):
        return {}
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    for u, v in array.tolist():
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {v: find(v) for v in parent}


def reference_triangle_count(edges: np.ndarray) -> int:
    """Count triangles via forward-adjacency intersection.

    Edges are canonicalized and deduplicated first; for each edge
    ``(u, v)`` with ``u < v``, triangles through it are the common
    higher-numbered neighbours ``|N+(u) ∩ N+(v)|`` — each triangle
    ``x < y < z`` is counted exactly once, at edge ``(x, y)``.
    """
    # Imported here (not at module top) to keep this module importable
    # on its own in docs/tests without pulling the placement machinery.
    from repro.graphs.model import canonical_edges

    canonical = canonical_edges(np.asarray(edges, dtype=np.int64))
    if len(canonical) < 3:
        return 0
    forward: dict[int, np.ndarray] = {}
    order = np.lexsort((canonical[:, 1], canonical[:, 0]))
    canonical = canonical[order]
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(canonical[:, 0])) + 1, [len(canonical)]]
    )
    for i in range(len(starts) - 1):
        lo, hi = starts[i], starts[i + 1]
        forward[int(canonical[lo, 0])] = canonical[lo:hi, 1]
    count = 0
    for u, v in canonical.tolist():
        nu = forward.get(u)
        nv = forward.get(v)
        if nu is None or nv is None:
            continue
        count += len(np.intersect1d(nu, nv, assume_unique=True))
    return count


def reference_degrees(edges: np.ndarray, *, num_vertices: int | None = None) -> np.ndarray:
    """Undirected degree per vertex id."""
    array = np.asarray(edges, dtype=np.int64)
    if num_vertices is None:
        num_vertices = int(array.max()) + 1 if len(array) else 0
    counts = np.zeros(num_vertices, dtype=np.int64)
    if len(array):
        counts += np.bincount(array.ravel(), minlength=num_vertices)
    return counts
