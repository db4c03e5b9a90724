#!/usr/bin/env python3
"""Median finalize wall of three unicast round shapes, and of the first
shipped again along its layout.

Each shape is one :meth:`~repro.sim.cluster.RoundContext.exchange_runs`
registration on a fresh cluster; the timer covers only the exit of the
``with cluster.round()`` block (grouping, delivery and charge), never
the cutting of the runs or their registration:

* ``uniform`` — ``two_level([12] * 12)``, 20 000 elements held in
  ascending owner order, each sent to a uniformly drawn node: a hash
  partition of about 12 800 runs, registered destination-ascending by
  :func:`~repro.util.grouping.runs_by_target`;
* ``twin`` — the same elements, each node sending all of its elements to
  one node (a function of the source): 144 runs, the same order;
* ``source-major`` — ``two_level([8] * 8)``, 400 000 elements, every
  node's sorted fragment cut at 63 splitters, registered fragment by
  fragment (64 × 64 runs): the layout of a sorting scatter.

The fourth line, ``uniform-again``, ships the ``uniform`` payload along
the layout of its own runs (:meth:`~repro.sim.cluster.Cluster.lay_out`,
:meth:`~repro.sim.cluster.RoundContext.exchange_layout`), shipped once
before: its per-run LCAs and every destination's last run are already
found, so the timer covers what a protocol that ships many payloads
along the same runs pays per round.

Usage::

    PYTHONPATH=src python tools/round_shapes.py [--repeats 30] [--seed 7]

One line per round: its name, runs, elements and the median wall in
milliseconds.  Standard library and NumPy only.
"""

import argparse
import statistics
from time import perf_counter

import numpy as np

import repro
from repro.sim.cluster import Cluster
from repro.util.grouping import index_dtype, runs_by_target


def _hash_partition(rng, targets_of):
    """The 12 x 12 shapes: owners ascending, targets from ``targets_of``,
    both in the narrow index dtype of ``Cluster.column`` and the hashers."""
    tree = repro.two_level([12] * 12)
    nodes = len(tree.compute_nodes)
    narrow = index_dtype(nodes)
    owners = np.sort(rng.integers(0, nodes, 20_000)).astype(narrow)
    values = rng.integers(0, 2**40, len(owners))
    targets = targets_of(owners, nodes).astype(narrow)
    order, *runs = runs_by_target(owners, targets)
    return tree, (*runs, values[order])


def uniform(rng):
    return _hash_partition(rng, lambda owners, n: rng.integers(0, n, len(owners)))


def twin(rng):
    return _hash_partition(rng, lambda owners, n: (owners * 5 + 1) % n)


def source_major(rng):
    tree = repro.two_level([8] * 8)
    nodes = len(tree.compute_nodes)
    values = rng.integers(0, 2**40, 400_000)
    splitters = np.sort(rng.choice(values, nodes - 1, replace=False))
    fragments = np.array_split(values, nodes)
    counts = []
    for fragment in fragments:
        fragment.sort()
        cuts = np.searchsorted(fragment, splitters)
        counts.append(np.diff(cuts, prepend=0, append=len(fragment)))
    sources = np.repeat(np.arange(nodes), nodes)
    targets = np.tile(np.arange(nodes), nodes)
    return tree, (sources, targets, np.concatenate(counts), np.concatenate(fragments))


SHAPES = (("uniform", uniform), ("twin", twin), ("source-major", source_major))


def finalize_wall(tree, runs, layout=None) -> float:
    """Seconds spent leaving one round that registered ``runs``, or
    that shipped their payload along ``layout``."""
    cluster = Cluster(tree)
    with cluster.round() as ctx:
        if layout is None:
            ctx.exchange_runs(*runs, tag="T")
        else:
            ctx.exchange_layout(layout, runs[3])
        start = perf_counter()
    return perf_counter() - start


def _report(name: str, walls: list, runs) -> None:
    print(
        f"{name:<13} runs {len(runs[2]):>6}  elements {len(runs[3]):>7}  "
        f"finalize {statistics.median(walls) * 1e3:.3f} ms"
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for name, build in SHAPES:
        tree, runs = build(np.random.default_rng(args.seed))
        finalize_wall(tree, runs)  # warm the tree's routing index
        _report(name, [finalize_wall(tree, runs) for _ in range(args.repeats)], runs)
    tree, runs = uniform(np.random.default_rng(args.seed))
    layout = Cluster(tree).lay_out(*runs[:3], tag="T")
    finalize_wall(tree, runs, layout)  # the first shipment lays it out
    walls = [finalize_wall(tree, runs, layout) for _ in range(args.repeats)]
    _report("uniform-again", walls, runs)


if __name__ == "__main__":
    main()
