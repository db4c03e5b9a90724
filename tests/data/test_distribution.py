"""Unit tests for the Distribution container."""

import numpy as np
import pytest

from repro.data.distribution import Distribution
from repro.errors import DistributionError
from repro.topology.builders import star


def sample_distribution():
    return Distribution(
        {
            "v1": {"R": [1, 2, 3], "S": [10, 11]},
            "v2": {"R": [4], "S": []},
            "v3": {},
        }
    )


class TestAccessors:
    def test_tags(self):
        assert sample_distribution().tags == frozenset({"R", "S"})

    def test_nodes_include_empty(self):
        assert sample_distribution().nodes == frozenset({"v1", "v2", "v3"})

    def test_fragment_is_readonly_view(self):
        dist = sample_distribution()
        fragment = dist.fragment("v1", "R")
        with pytest.raises(ValueError):
            fragment[0] = 99
        assert dist.fragment("v1", "R")[0] == 1

    def test_fragment_shares_storage_zero_copy(self):
        dist = sample_distribution()
        first = dist.fragment("v1", "R")
        second = dist.fragment("v1", "R")
        assert np.shares_memory(first, second)

    def test_fragment_of_absent_tag_is_empty(self):
        assert len(sample_distribution().fragment("v2", "S")) == 0

    def test_fragment_of_unknown_node_is_empty(self):
        assert len(sample_distribution().fragment("ghost", "R")) == 0

    def test_size_per_tag(self):
        dist = sample_distribution()
        assert dist.size("v1", "R") == 3
        assert dist.size("v1", "S") == 2

    def test_non_string_tags_normalize_on_lookup(self):
        # regression: __init__ stores str(tag) keys, but fragment/size/
        # relation used to look the raw tag up and silently return
        # empty data for non-string tags
        dist = Distribution({"v1": {7: [1, 2]}, "v2": {7: [3]}})
        assert dist.tags == frozenset({"7"})
        assert dist.fragment("v1", 7).tolist() == [1, 2]
        assert dist.size("v1", 7) == 2
        assert dist.relation(7).tolist() == [1, 2, 3]
        assert dist.total(7) == 3

    def test_size_total_per_node(self):
        assert sample_distribution().size("v1") == 5

    def test_sizes_dict(self):
        assert sample_distribution().sizes("R") == {"v1": 3, "v2": 1, "v3": 0}

    def test_total(self):
        dist = sample_distribution()
        assert dist.total("R") == 4
        assert dist.total() == 6

    def test_size_statistics_agree_with_the_fragments(self):
        """Sizes and totals are computed once at construction; they must
        say what walking the fragments says, for every tag spelling."""
        dist = Distribution(
            {"v1": {"R": [1, 2, 3], 7: [5]}, "v2": {"R": []}, "v3": {}}
        )
        for tag in ("R", "7", 7, "absent", None):
            walked = {
                node: sum(
                    len(dist.fragment(node, t))
                    for t in (dist.tags if tag is None else [tag])
                )
                for node in dist.nodes
            }
            assert dist.sizes(tag) == walked
            assert dist.total(tag) == sum(walked.values())
            for node in (*dist.nodes, "ghost"):
                assert dist.size(node, tag) == walked.get(node, 0)
                assert type(dist.size(node, tag)) is int

    def test_sizes_dict_is_a_copy(self):
        dist = sample_distribution()
        dist.sizes("R")["v1"] = 99
        assert dist.size("v1", "R") == 3
        assert dist.sizes("R")["v3"] == 0

    def test_relation_concatenates_in_node_order(self):
        values = sample_distribution().relation("R")
        assert sorted(values.tolist()) == [1, 2, 3, 4]

    def test_rejects_two_dimensional_fragment(self):
        with pytest.raises(DistributionError):
            Distribution({"v1": {"R": [[1, 2], [3, 4]]}})


class TestValidation:
    def test_validate_for_accepts_compute_placement(self):
        tree = star(3)
        Distribution({"v1": {"R": [1]}}).validate_for(tree)

    def test_validate_for_rejects_router_placement(self):
        tree = star(3)
        with pytest.raises(DistributionError, match="non-compute"):
            Distribution({"w": {"R": [1]}}).validate_for(tree)

    def test_validate_for_allows_empty_stray(self):
        tree = star(3)
        Distribution({"w": {}}).validate_for(tree)


class TestReporting:
    def test_describe_mentions_counts(self):
        assert "|R_v|=3" in sample_distribution().describe()

    def test_repr(self):
        assert "total=6" in repr(sample_distribution())
