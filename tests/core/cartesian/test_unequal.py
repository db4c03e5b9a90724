"""Tests for the unequal-size cartesian product (Appendix A.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cartesian.packing import assert_tiles_cover_grid
from repro.core.cartesian.unequal import (
    balanced_packing_unequal,
    generalized_star_cartesian_product,
    l_star,
    unequal_cartesian_lower_bound,
    unequal_lower_bound_counting,
    unequal_lower_bound_flow,
)
from repro.data.distribution import Distribution
from repro.data.generators import random_distribution
from repro.errors import PackingError, ProtocolError
from repro.topology.builders import star, two_level


class TestLStar:
    def test_satisfies_inequality(self):
        widths = [1.0, 2.0, 4.0]
        scale = l_star(100, 400, widths)
        supply = sum(min(scale * w, 100) * scale * w for w in widths)
        assert supply >= 100 * 400 * (1 - 1e-9)

    def test_is_minimal(self):
        widths = [1.0, 2.0, 4.0]
        scale = l_star(100, 400, widths)
        smaller = scale * 0.99
        supply = sum(min(smaller * w, 100) * smaller * w for w in widths)
        assert supply < 100 * 400

    def test_equal_case_matches_closed_form(self):
        # With C*w < |R| everywhere, (2) reads C^2 sum w^2 >= |R||S|.
        widths = [1.0, 1.0, 1.0, 1.0]
        scale = l_star(1000, 1000, widths)
        assert scale == pytest.approx((1000 * 1000 / 4) ** 0.5, rel=1e-6)

    def test_empty_grid(self):
        assert l_star(0, 100, [1.0]) == 0.0

    def test_rejects_infinite_bandwidth(self):
        with pytest.raises(ProtocolError):
            l_star(10, 10, [float("inf")])

    @given(
        r=st.integers(1, 200),
        s=st.integers(1, 400),
        widths=st.lists(st.sampled_from([0.5, 1.0, 2.0, 8.0]), min_size=1, max_size=6),
    )
    @settings(max_examples=80)
    def test_monotone_in_sizes(self, r, s, widths):
        small = l_star(r, s, widths)
        bigger = l_star(r, 2 * s, widths)
        assert bigger >= small - 1e-9


class TestLowerBounds:
    def make_instance(self):
        tree = star(4, bandwidth=[1.0, 2.0, 4.0, 8.0])
        dist = random_distribution(tree, r_size=100, s_size=900, seed=3)
        return tree, dist

    def test_flow_bound_caps_at_r(self):
        tree = star(2, bandwidth=1.0)
        dist = Distribution(
            {
                "v1": {"R": list(range(10)), "S": list(range(100, 400))},
                "v2": {"S": list(range(1000, 1400))},
            }
        )
        bound = unequal_lower_bound_flow(tree, dist)
        assert bound.value == 5.0  # min(N_v, N - N_v, |R|) / 2 = |R| / 2

    def test_counting_bound_inapplicable_with_dominant_node(self):
        tree = star(2)
        dist = Distribution(
            {
                "v1": {"R": list(range(10)), "S": list(range(100, 800))},
                "v2": {"S": list(range(1000, 1010))},
            }
        )
        bound = unequal_lower_bound_counting(tree, dist)
        assert bound.value == 0.0

    def test_combined_takes_max(self):
        tree, dist = self.make_instance()
        combined = unequal_cartesian_lower_bound(tree, dist)
        flow = unequal_lower_bound_flow(tree, dist)
        counting = unequal_lower_bound_counting(tree, dist)
        assert combined.value == max(flow.value, counting.value)

    def test_counting_positive_when_alpha_nonempty(self):
        # Skewed placement: the light nodes fall into Vα and the
        # counting terms become non-trivial.
        tree = star(4)
        dist = random_distribution(
            tree, r_size=200, s_size=1000, policy="zipf",
            zipf_exponent=1.0, seed=5,
        )
        bound = unequal_lower_bound_counting(tree, dist)
        assert bound.value > 0

    def test_counting_vacuous_when_alpha_empty(self):
        # Uniform placement with every node above |R|: Vα is empty and
        # Theorem 9's sum over Vα is vacuous — the theorem then gives
        # no information (Theorem 8 covers this regime instead).
        tree = star(4)
        dist = random_distribution(
            tree, r_size=200, s_size=1000, policy="uniform", seed=5
        )
        bound = unequal_lower_bound_counting(tree, dist)
        assert bound.value == 0.0
        flow = unequal_lower_bound_flow(tree, dist)
        assert flow.value >= 100.0  # |R| / 2 per unit-bandwidth link


class TestBalancedPackingUnequal:
    def test_covers_grid(self):
        tiles, _ = balanced_packing_unequal(
            {"a": 1.0, "b": 2.0, "c": 4.0}, 50, 400
        )
        assert_tiles_cover_grid(tiles, 50, 400)

    def test_fast_node_gets_slab(self):
        tiles, scale = balanced_packing_unequal(
            {"a": 100.0, "b": 1.0, "c": 1.0}, 20, 500
        )
        assert tiles["a"] is not None
        assert tiles["a"].width == 20  # full |R| width

    def test_empty_grid(self):
        tiles, scale = balanced_packing_unequal({"a": 1.0}, 0, 10)
        assert tiles == {"a": None}
        assert scale == 0.0

    def test_wide_grid_transposed(self):
        # Sub-grids from Algorithm 8 can be wider than tall; the packer
        # transposes internally and still covers.
        tiles, _ = balanced_packing_unequal(
            {"a": 1.0, "b": 2.0, "c": 4.0}, 400, 50
        )
        assert_tiles_cover_grid(tiles, 400, 50)

    @given(
        r=st.integers(1, 60),
        s_factor=st.integers(1, 8),
        widths=st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0]),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_covers(self, r, s_factor, widths):
        s = r * s_factor
        bandwidths = {f"v{i}": w for i, w in enumerate(widths)}
        tiles, _ = balanced_packing_unequal(bandwidths, r, s)
        assert_tiles_cover_grid(tiles, r, s)


class TestGeneralizedStarCartesianProduct:
    def run_and_check(self, tree, dist, r_size, s_size):
        result = generalized_star_cartesian_product(tree, dist)
        produced = sum(o["num_pairs"] for o in result.outputs.values())
        assert produced >= r_size * s_size
        return result

    def test_unequal_sizes_handled(self):
        tree = star(5, bandwidth=[1, 2, 4, 2, 1])
        dist = random_distribution(tree, r_size=100, s_size=1500, seed=7)
        result = self.run_and_check(tree, dist, 100, 1500)
        assert result.rounds == 1
        assert "candidates" in result.meta or "target" in result.meta

    def test_dominant_node_gathers(self):
        tree = star(3)
        dist = random_distribution(
            tree, r_size=50, s_size=950,
            policy="single-heavy", heavy_fraction=0.9, seed=8,
        )
        result = self.run_and_check(tree, dist, 50, 950)
        assert result.meta["strategy"] == "gather-dominant"

    def test_swapped_relations(self):
        tree = star(4)
        dist = random_distribution(tree, r_size=800, s_size=100, seed=9)
        result = self.run_and_check(tree, dist, 800, 100)
        assert result.meta.get("swapped_relations")

    def test_cost_within_constant_of_bound(self):
        for policy in ("uniform", "zipf"):
            tree = star(6, bandwidth=[1, 1, 2, 2, 4, 4])
            dist = random_distribution(
                tree, r_size=300, s_size=3000, policy=policy, seed=11
            )
            result = generalized_star_cartesian_product(tree, dist)
            bound = unequal_cartesian_lower_bound(tree, dist)
            assert result.cost <= 8 * bound.value, (policy, result.meta)

    def test_picks_cheapest_candidate(self):
        tree = star(5, bandwidth=[8, 4, 2, 1, 1])
        dist = random_distribution(tree, r_size=200, s_size=1200, seed=13)
        result = generalized_star_cartesian_product(tree, dist)
        candidates = result.meta.get("candidates")
        if candidates:
            assert result.cost == min(candidates.values())

    def test_rejects_non_star(self):
        tree = two_level([2, 2])
        dist = random_distribution(tree, r_size=10, s_size=40, seed=1)
        with pytest.raises(ProtocolError, match="star"):
            generalized_star_cartesian_product(tree, dist)

    def test_empty_instance(self):
        tree = star(2)
        result = generalized_star_cartesian_product(
            tree, Distribution({"v1": {"R": [], "S": []}})
        )
        assert result.meta["strategy"] == "empty"

    def test_equal_sizes_also_work(self):
        tree = star(4)
        dist = random_distribution(tree, r_size=200, s_size=200, seed=15)
        self.run_and_check(tree, dist, 200, 200)

    @given(
        r=st.integers(1, 40),
        s=st.integers(1, 120),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_all_pairs_enumerated(self, r, s, seed):
        tree = star(4, bandwidth=[1.0, 2.0, 4.0, 8.0])
        dist = random_distribution(tree, r_size=r, s_size=s, seed=seed)
        result = generalized_star_cartesian_product(tree, dist)
        produced = sum(o["num_pairs"] for o in result.outputs.values())
        assert produced >= r * s
