"""``Cluster.load_column``: a column held in compute order is installed
as ``Cluster.load`` installs the same column as a ``Distribution``."""

import numpy as np
import pytest

import repro
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.sim.cluster import Cluster
from tests.cluster_identity import assert_clusters_identical

TREE = repro.two_level([3, 2, 2], uplink_bandwidth=[0.5, 2.0, 1.0])


@pytest.mark.parametrize("sizes", [[2, 0, 5, 1, 0, 3, 4], [0] * 7, [9, 0, 0, 0, 0, 0, 0]])
def test_load_column_is_load_of_the_same_column(sizes):
    computes = TREE.compute_nodes
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    values = np.random.default_rng(len(sizes)).integers(0, 2**40, offsets[-1])
    loaded, installed = Cluster(TREE), Cluster(TREE)
    loaded.load(Distribution.from_columns(computes, {"R": (values, offsets)}))
    installed.load_column("R", values, offsets)
    assert_clusters_identical(loaded, installed, a_name="load", b_name="load_column")
    owners, column = installed.column("R")
    assert np.array_equal(column, values)
    assert np.array_equal(owners, np.repeat(np.arange(len(computes)), sizes))


@pytest.mark.parametrize("offsets", [[0, 1, 2], [0] * 7 + [3], [0] * 8 + [2]])
def test_offsets_must_cover_the_compute_nodes_and_the_column(offsets):
    with pytest.raises(ProtocolError, match="offsets over 2 values"):
        Cluster(TREE).load_column("R", np.arange(2), np.array(offsets))
