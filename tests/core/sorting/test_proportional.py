"""Unit tests for Algorithm 6 and the Lemma 9 guarantees."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.sorting.proportional import proportional_quotas, proportional_runs


class TestBasics:
    def test_exact_proportions(self):
        assert proportional_quotas([10, 20, 30], 6) == [1, 2, 3]

    def test_total_at_least_light_size(self):
        quotas = proportional_quotas([7, 13, 5], 23)
        assert sum(quotas) >= 23

    def test_zero_light_size(self):
        assert proportional_quotas([5, 5], 0) == [0, 0]

    def test_single_heavy_node(self):
        assert proportional_quotas([42], 17) == [17]

    def test_rejects_no_heavy_data(self):
        with pytest.raises(ValueError):
            proportional_quotas([0, 0], 5)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            proportional_quotas([-1, 2], 5)
        with pytest.raises(ValueError):
            proportional_quotas([1, 2], -5)

    def test_zero_weight_heavy_node_gets_nothing_extra(self):
        quotas = proportional_quotas([0, 10], 10)
        assert quotas[0] <= 1  # at most the rounding slack


HEAVY = st.lists(st.integers(0, 1000), min_size=1, max_size=12).filter(
    lambda sizes: sum(sizes) > 0
)

#: about 1 000 heavy nodes, a quarter of them empty
MANY_HEAVY = st.integers(0, 2**16).map(
    lambda seed: (
        np.random.default_rng(seed).integers(0, 4, 1000)
        * np.random.default_rng(seed + 1).integers(1, 10**6, 1000)
    ).tolist()
).filter(lambda sizes: sum(sizes) > 0)


def algorithm6_quotas(heavy, light):
    """Algorithm 6 for one light node, heavy node by heavy node: round
    the ideal share down while the carried credit covers its fraction,
    else up."""
    total, quotas, credit = sum(heavy), [], 0.0
    for size in heavy:
        ideal = size / total * light
        fraction = ideal - math.floor(ideal)
        if credit >= fraction:
            quotas.append(math.floor(ideal))
            credit -= fraction
        else:
            quotas.append(math.floor(ideal) + 1)
            credit += 1.0 - fraction
    return quotas


def per_light_runs(heavy, light_sizes):
    """Light node by light node, ``min(quota, elements left)`` per heavy
    node from Algorithm 6: the non-empty ``(light, heavy, count)``."""
    runs = ([], [], [])
    for row, size in enumerate(light_sizes):
        if not size:
            continue
        offset = 0
        for column, quota in enumerate(algorithm6_quotas(heavy, size)):
            sent = min(quota, size - offset)
            offset += sent
            if sent:
                for part, value in zip(runs, (row, column, sent)):
                    part.append(value)
    return runs


class TestOnePassAgainstTheWalk:
    """All light nodes in one pass over the heavy nodes equal Algorithm
    6's scalar walk per light node with ``==``: quotas and clipped runs."""

    @given(
        heavy=st.one_of(HEAVY, MANY_HEAVY),
        light=st.lists(st.integers(0, 5000), max_size=8),
    )
    @example(heavy=[42], light=[17, 0, 1])
    @example(heavy=[0, 10, 0, 3], light=[0, 13, 5])
    @example(heavy=[5, 5], light=[0, 0])
    @settings(max_examples=150, deadline=None)
    def test_quotas_and_runs(self, heavy, light):
        for size in light:
            assert proportional_quotas(heavy, size) == algorithm6_quotas(heavy, size)
        runs = proportional_runs(heavy, np.asarray(light, dtype=np.int64))
        assert tuple(part.tolist() for part in runs) == per_light_runs(heavy, light)
        assert runs[2].sum() == sum(light)

    def test_no_light_data_needs_no_heavy_data(self):
        runs = proportional_runs([0, 0], np.zeros(3, np.int64))
        assert [part.tolist() for part in runs] == [[], [], []]
        with pytest.raises(ValueError):
            proportional_runs([0, 0], np.asarray([0, 4]))


class TestLemma9:
    @given(heavy=HEAVY, light=st.integers(0, 500))
    @settings(max_examples=200)
    def test_property1_prefix_within_one(self, heavy, light):
        quotas = proportional_quotas(heavy, light)
        total = sum(heavy)
        prefix = 0
        ideal_prefix = 0.0
        for quota, size in zip(quotas, heavy):
            prefix += quota
            ideal_prefix += size / total * light
            assert prefix - 1 <= ideal_prefix + 1e-9
            assert ideal_prefix <= prefix + 1e-9

    @given(
        heavy=HEAVY,
        light=st.integers(0, 500),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_property2_range_within_one(self, heavy, light, data):
        quotas = proportional_quotas(heavy, light)
        total = sum(heavy)
        i = data.draw(st.integers(0, len(heavy) - 1))
        j = data.draw(st.integers(i, len(heavy) - 1))
        range_quota = sum(quotas[i : j + 1])
        ideal = sum(heavy[i : j + 1]) / total * light
        assert range_quota <= ideal + 1 + 1e-9

    @given(heavy=HEAVY, light=st.integers(0, 500))
    @settings(max_examples=200)
    def test_property3_quotas_suffice(self, heavy, light):
        assert sum(proportional_quotas(heavy, light)) >= light

    @given(heavy=HEAVY, light=st.integers(0, 500))
    @settings(max_examples=100)
    def test_credit_never_negative(self, heavy, light):
        # equivalent statement: every quota is floor(ideal) or floor+1
        quotas = proportional_quotas(heavy, light)
        total = sum(heavy)
        for quota, size in zip(quotas, heavy):
            ideal = size / total * light
            assert quota in (math.floor(ideal), math.floor(ideal) + 1)
