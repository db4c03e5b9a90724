"""Shared pieces of the wall-clock benchmarks (scale, serve, obs tests).

The simulator's hot path is the hashed shuffle — every element of a
relation (or every hash-to-min message of a graph superstep) routed to
a hashed destination through one communication round.  This module
prepares exactly those rounds (target assignment and local data are
precomputed, so a caller times only the round), builds the fat trees
they run on, extracts the group/deliver/charge split from a traced
round, and appends run entries to the ``BENCH_*.json`` perf-trajectory
files.  It deliberately imports nothing from :mod:`repro.parallel`:
:mod:`repro.analysis.serve` imports it, and import time is part of what
a benchmark's setup pays.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data.generators import random_distribution, random_graph_distribution
from repro.graphs.model import VERTEX_BITS, decode_edges
from repro.queries.tuples import encode_tuples
from repro.sim.cluster import Cluster
from repro.topology.builders import two_level
from repro.topology.tree import TreeTopology
from repro.util.hashing import WeightedNodeHasher
from repro.util.seeding import derive_seed


def fat_tree(num_racks: int, *, rack_size: int | None = None) -> TreeTopology:
    """A symmetric two-level fat tree with ``num_racks**2`` leaves."""
    size = num_racks if rack_size is None else rack_size
    return two_level(
        [size] * num_racks,
        leaf_bandwidth=2.0,
        uplink_bandwidth=4.0,
        name=f"fat-tree({num_racks}x{size})",
    )


def prepare_uniform_hash(
    tree: TreeTopology, num_elements: int, seed: int
) -> tuple[list, str]:
    """The uniform-hash relational shuffle: elements hashed to nodes."""
    distribution = random_distribution(
        tree,
        r_size=num_elements,
        s_size=0,
        policy="proportional",
        seed=seed,
    )
    cluster = Cluster(tree, distribution)
    computes = cluster.compute_order
    hasher = WeightedNodeHasher(
        computes, [1.0] * len(computes), derive_seed(seed, "bench-speed")
    )
    prepared = []
    for node in computes:
        local = cluster.local(node, "R")
        if len(local):
            prepared.append((node, hasher.assign_indices(local), local))
    return prepared, "uniform-hash shuffle"


def prepare_components(
    tree: TreeTopology, num_elements: int, seed: int
) -> tuple[list, str]:
    """The connected-components superstep shuffle (uniform-hash flavour).

    One hash-to-min message per directed edge plus one identity message
    per locally known vertex, exactly what the textbook MPC baseline
    ships every superstep; messages are (vertex, label) tuples packed
    on the 64-bit substrate and hashed to a uniform owner by vertex.
    The graph is sized so the shuffle moves ~``num_elements`` messages
    (empirically ~4 messages per edge at the default density).
    """
    distribution = random_graph_distribution(
        tree,
        num_edges=max(1_000, num_elements // 4),
        policy="proportional",
        seed=seed,
    )
    cluster = Cluster(tree, distribution)
    computes = cluster.compute_order
    hasher = WeightedNodeHasher(
        computes, [1.0] * len(computes), derive_seed(seed, "bench-speed-cc")
    )
    prepared = []
    for node in computes:
        fragment = cluster.local(node, "E")
        if not len(fragment):
            continue
        lo, hi = decode_edges(fragment)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        verts = np.unique(src)
        keys = np.concatenate([dst, verts])
        values = np.concatenate([src, verts])  # superstep 1: label == id
        payload = encode_tuples(keys, values, payload_bits=VERTEX_BITS)
        prepared.append((node, hasher.assign_indices(keys), payload))
    return prepared, "connected-components superstep shuffle"


def round_phases(tracer) -> dict:
    """Extract the group/deliver/charge split from a traced round.

    Finds the first round span whose attrs carry the phase timings (the
    cluster only records them while a recording tracer is installed)
    and returns them rounded to microseconds; empty when no such span
    was captured.  Shared with :mod:`repro.analysis.scale`.
    """
    for event in tracer.events:
        attrs = event.attrs
        if attrs.get("category") == "round" and "t_group_s" in attrs:
            return {
                key: round(attrs[key], 6)
                for key in ("t_group_s", "t_deliver_s", "t_charge_s")
            }
    return {}


def trajectory_path(file_name: str, env_var: str) -> Path:
    """Resolve a trajectory file: env override, repo root, else cwd.

    The convention keeps ``BENCH_*.json`` at the repo root; when the
    package runs from a checkout (``src/repro/analysis/speed.py``) that
    root is three levels up, recognisable by its ``pyproject.toml``.
    An installed package falls back to the working directory.
    """
    override = os.environ.get(env_var)
    if override:
        return Path(override)
    root = Path(__file__).resolve().parents[3]
    if (root / "pyproject.toml").exists():
        return root / file_name
    return Path(file_name)  # pragma: no cover - installed usage


def write_trajectory(
    cases: list,
    *,
    grid: str,
    path: str | os.PathLike,
    benchmark: str,
    max_runs: int = 50,
    extra: dict | None = None,
) -> Path:
    """Append one run entry to a ``BENCH_*.json`` trajectory file.

    Shared by every substrate benchmark: ``cases`` only needs a
    ``to_dict()`` per item, ``benchmark`` names the harness, and
    ``extra`` merges additional run-level facts (e.g. the machine's
    core count for the scaling grid).
    """
    path = Path(path)
    payload: dict = {"benchmark": benchmark, "unit": "seconds", "runs": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("runs"), list):
                payload["runs"] = existing["runs"]
        except (ValueError, OSError):  # pragma: no cover - corrupt file
            pass
    entry = {
        "date": time.strftime("%Y-%m-%d"),
        "grid": grid,
        "cases": [case.to_dict() for case in cases],
    }
    if extra:
        entry.update(extra)
    payload["runs"].append(entry)
    payload["runs"] = payload["runs"][-max_runs:]
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return path
