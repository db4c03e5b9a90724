"""Deterministic vectorised hashing for randomized routing.

The set-intersection algorithms route each element ``a`` to the node
``h(a)`` drawn from a *non-uniform* distribution over compute nodes
(Algorithms 1 and 2: probability proportional to the data size ``N_v`` the
node holds).  Two properties matter:

* **Consistency** — every node must evaluate the same ``h(a)`` for the
  same element without communication, so ``h`` must be a pure function of
  ``(seed, a)``;
* **Speed** — benchmarks hash 10^5-10^6 elements, so the implementation is
  vectorised over NumPy ``uint64`` arrays.

We use the splitmix64 finalizer (Steele, Lea & Flood 2014), a well-mixed
64-bit permutation, to map ``seed XOR element`` to a uniform 64-bit value,
then interpret it as a point of the unit interval and invert the
cumulative node distribution: the node is the number of cumulative
weights at or below the point.  The inversion is a table lookup on the
hash's top bits — each bucket of the unit interval that lies inside one
weight interval knows its node — and a binary search only for the few
elements whose bucket contains a boundary.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Sequence

import numpy as np

from repro.util.grouping import ContentCache, group_slices, index_dtype

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_SPAN = float(2**64)
#: Table buckets per candidate node (rounded up to a power of two): at
#: most one bucket per node holds a boundary, so under 1 element in 64
#: takes the binary search.
_BUCKETS_PER_NODE = 64
_BOUNDARY = -1
#: The largest float64 below 1.0, the exclusive end of the unit interval.
_LARGEST_POINT = float(np.nextafter(1.0, 0.0))

#: Memo behind :meth:`WeightedNodeHasher.assign_indices` /
#: :meth:`~WeightedNodeHasher.assign_slices` (per thread/worker); keys
#: combine the hasher's identity token with the values' content digest.
#: Protocols hash whole relations, so an entry is relation-sized; the
#: budget covers what one run re-reads (an iterative driver re-hashes
#: one static key column per superstep: 4M narrow targets), not a
#: history of past runs' relations.
ASSIGN_CACHE = ContentCache(max_bytes=8 << 20)


def splitmix64(values: np.ndarray, seed: int) -> np.ndarray:
    """Apply the splitmix64 finalizer to ``values`` keyed by ``seed``.

    ``values`` may be any integer array; it is reinterpreted as ``uint64``.
    Returns a ``uint64`` array of the same shape.
    """
    x = np.asarray(values).astype(np.uint64, copy=True)
    x += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        x += _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x


def hash_to_unit(values: np.ndarray, seed: int) -> np.ndarray:
    """Hash integer ``values`` to floats uniform in the unit interval.

    ``uint64 -> float64`` rounds to nearest, so the top ``2**10`` hashes
    map to exactly ``1.0``; :class:`WeightedNodeHasher` clamps them
    below it.
    """
    return splitmix64(values, seed).astype(np.float64) / _U64_SPAN


class WeightedNodeHasher:
    """The random hash function ``h`` of Algorithms 1 and 2.

    Maps each domain element independently to one of ``nodes`` with
    probability proportional to ``weights``; the map is a pure function of
    ``(seed, element)`` so every compute node can evaluate it locally.

    Parameters
    ----------
    nodes:
        The candidate target nodes (e.g. the compute nodes of one
        partition block).
    weights:
        Non-negative weights, one per node; at least one must be positive.
        Algorithm 2 uses ``weights[v] = N_v``.
    seed:
        Stream seed; derive per-block seeds with
        :func:`repro.util.seeding.derive_seed`.
    """

    def __init__(
        self,
        nodes: Sequence[Hashable],
        weights: Sequence[float],
        seed: int,
    ) -> None:
        if len(nodes) != len(weights):
            raise ValueError(
                f"{len(nodes)} nodes but {len(weights)} weights"
            )
        if len(nodes) == 0:
            raise ValueError("need at least one candidate node")
        weight_array = np.asarray(weights, dtype=np.float64)
        if np.any(weight_array < 0):
            raise ValueError("weights must be non-negative")
        total = float(weight_array.sum())
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        self._nodes = list(nodes)
        self._index_dtype = index_dtype(len(nodes))
        self._seed = int(seed)
        self._cumulative = np.cumsum(weight_array / total)
        # the last boundary is 1 by definition, whatever the sum rounded to
        self._cumulative[-1] = 1.0
        # The node of a point is the number of boundaries at or below
        # it.  Bucket j of the table covers the points
        # [j / size, (j + 1) / size] — both edges exact in float64, the
        # upper one included because the conversion of a hash rounds up
        # — and holds that number when no boundary lies in
        # (j / size, (j + 1) / size], a sentinel when one does.  The
        # last boundary puts the sentinel in the last bucket, so every
        # hash that rounds to 1.0 takes the search and its clamp.
        size = 1 << (_BUCKETS_PER_NODE * len(nodes) - 1).bit_length()
        self._shift = np.uint64(64 - size.bit_length() + 1)
        edges = np.ceil(self._cumulative * size).astype(np.intp)
        bounds = np.zeros(len(nodes) + 1, dtype=np.intp)
        np.minimum(edges, size, out=bounds[1:])
        self._table = np.repeat(
            np.arange(len(nodes), dtype=self._index_dtype), np.diff(bounds)
        )
        self._table[edges[(edges > 0) & (edges <= size)] - 1] = _BOUNDARY
        # Identity of this hash *function* for the assignment cache: two
        # hashers agree on every input iff seed and boundaries agree.
        self._token = hashlib.blake2b(
            self._cumulative.tobytes() + str(self._seed).encode(),
            digest_size=16,
        ).digest()

    @property
    def nodes(self) -> list:
        """The candidate nodes, in the order used for probabilities."""
        return list(self._nodes)

    def indices_of_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """The index (into ``nodes``) for each 64-bit hash of an array."""
        indices = self._table[(hashes >> self._shift).view(np.intp)]
        boundary = np.nonzero(indices == _BOUNDARY)
        if boundary[0].size:
            points = hashes[boundary].astype(np.float64) / _U64_SPAN
            # the top 2**10 hashes round to 1.0, which is past every node
            np.minimum(points, _LARGEST_POINT, out=points)
            indices[boundary] = np.searchsorted(
                self._cumulative, points, side="right"
            )
        return indices

    def _compute_indices(self, values: np.ndarray) -> np.ndarray:
        return self.indices_of_hashes(splitmix64(values, self._seed))

    def assign_indices(self, values: np.ndarray) -> np.ndarray:
        """Return the index (into ``nodes``) chosen for each value.

        Memoized on the values array's content: iterative protocols
        (hash-to-min supersteps, A/B benchmark repeats) route the same
        key set round after round, and a repeated assignment costs one
        digest pass instead of splitmix + table lookup.  Cached
        results are read-only; a hit returns bit-identical indices by
        construction.
        """
        values = np.asarray(values)
        fingerprint = ASSIGN_CACHE.fingerprint(values)
        if fingerprint is None:
            return self._compute_indices(values)
        key = b"assign:" + self._token + fingerprint
        hit = ASSIGN_CACHE.get(key)
        if hit is not None:
            return hit
        targets = self._compute_indices(values)
        targets.setflags(write=False)
        ASSIGN_CACHE.put(key, targets, targets.nbytes)
        return targets

    def assign_slices(
        self, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused hash + group kernel: one cache entry, zero re-sorting.

        Returns ``(targets, order, owners, starts, ends)`` — the
        assignment of :meth:`assign_indices` together with its
        :func:`~repro.util.grouping.group_slices` grouping: permuting a
        parallel array by ``order`` makes the elements owned by node
        index ``owners[k]`` the contiguous slice ``[starts[k],
        ends[k])``.  Protocols that both scatter by the assignment and
        iterate its per-owner groups (the hash-to-min return leg) get
        hash, node lookup, and argsort from one memo lookup on
        repeated inputs.
        """
        values = np.asarray(values)
        fingerprint = ASSIGN_CACHE.fingerprint(values)
        if fingerprint is None:
            targets = self._compute_indices(values)
            return (targets, *group_slices(targets))
        key = b"fused:" + self._token + fingerprint
        hit = ASSIGN_CACHE.get(key)
        if hit is not None:
            return hit
        targets = self.assign_indices(values)
        grouped = group_slices(targets)
        result = (targets, *grouped)
        for part in result:
            part.setflags(write=False)
        ASSIGN_CACHE.put(
            key, result, sum(part.nbytes for part in result)
        )
        return result

    def assign(self, values: np.ndarray) -> list:
        """Return the node chosen for each value."""
        return [self._nodes[i] for i in self.assign_indices(values)]

    def probability(self, node: Hashable) -> float:
        """The marginal probability that an element is routed to ``node``."""
        index = self._nodes.index(node)
        previous = self._cumulative[index - 1] if index > 0 else 0.0
        return float(self._cumulative[index] - previous)
