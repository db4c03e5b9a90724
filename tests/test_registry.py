"""Unit tests for the protocol/task registry."""

import pytest

import repro
from repro.errors import AnalysisError
from repro.registry import (
    RegistryError,
    get_protocol,
    get_task,
    list_protocols,
    protocols_for,
    register_protocol,
    tasks,
)


class TestCatalog:
    def test_all_tasks_registered(self):
        assert set(tasks()) >= {
            "set-intersection",
            "cartesian-product",
            "sorting",
            "equijoin",
            "groupby-aggregate",
        }

    def test_legacy_protocols_present(self):
        assert set(protocols_for("set-intersection")) == {
            "tree",
            "star",
            "uniform-hash",
        }
        assert set(protocols_for("cartesian-product")) >= {
            "tree",
            "star",
            "classic-hypercube",
        }
        assert set(protocols_for("sorting")) == {"wts", "terasort"}

    def test_listing_is_sorted_and_complete(self):
        specs = list_protocols()
        keys = [(s.task, s.name) for s in specs]
        assert keys == sorted(keys)
        assert len(specs) >= 15
        one_task = list_protocols("sorting")
        assert {s.name for s in one_task} == {"wts", "terasort"}
        assert all(s.task == "sorting" for s in one_task)

    def test_specs_carry_metadata(self):
        spec = get_protocol("set-intersection", "tree")
        assert spec.func is repro.tree_intersect
        assert spec.kind == "algorithm"
        assert spec.accepts_seed
        assert spec.description
        baseline = get_protocol("cartesian-product", "classic-hypercube")
        assert baseline.kind == "baseline"
        assert not baseline.accepts_seed

    def test_star_only_protocols_declare_topology(self):
        assert get_protocol("set-intersection", "star").topology == "star"
        assert get_protocol("cartesian-product", "whc").topology == "star"
        assert get_protocol("set-intersection", "tree").topology is None


class TestResolution:
    def test_task_aliases_resolve(self):
        assert get_task("intersection").name == "set-intersection"
        assert get_task("cartesian").name == "cartesian-product"
        assert get_task("sort").name == "sorting"
        assert get_task("join").name == "equijoin"

    def test_alias_resolves_for_protocol_lookup(self):
        assert (
            get_protocol("intersection", "tree").task == "set-intersection"
        )

    def test_unknown_task_rejected(self):
        with pytest.raises(AnalysisError, match="unknown task"):
            get_task("matrix-multiply")

    def test_unknown_protocol_rejected_with_choices(self):
        with pytest.raises(AnalysisError, match="choose from"):
            get_protocol("sorting", "quicksort")


class TestRegistration:
    def test_duplicate_name_rejected(self):
        def imposter(tree, distribution):
            raise AssertionError("never called")

        with pytest.raises(RegistryError, match="already registered"):
            register_protocol(task="sorting", name="wts")(imposter)

    def test_reregistering_same_callable_keeps_original_spec(self):
        spec = get_protocol("sorting", "wts")
        # A stray second decoration (even with no metadata) must not
        # rewrite the catalog entry.
        assert register_protocol(task="sorting", name="wts")(spec.func) is (
            spec.func
        )
        unchanged = get_protocol("sorting", "wts")
        assert unchanged.accepts_seed
        assert unchanged.description == spec.description

    def test_reloaded_definition_replaces_spec(self):
        import repro.registry as registry_module

        original = get_protocol("sorting", "wts")

        clone = type(original.func)(
            original.func.__code__,
            original.func.__globals__,
            original.func.__name__,
            original.func.__defaults__,
            original.func.__closure__,
        )
        clone.__qualname__ = original.func.__qualname__
        clone.__module__ = original.func.__module__
        clone.__kwdefaults__ = original.func.__kwdefaults__
        try:
            # Same module + qualname = a module reload: allowed.
            register_protocol(
                task="sorting", name="wts", accepts_seed=True
            )(clone)
            assert get_protocol("sorting", "wts").func is clone
        finally:
            registry_module._PROTOCOL_SPECS[("sorting", "wts")] = original

    def test_bad_kind_rejected(self):
        with pytest.raises(RegistryError, match="kind"):
            register_protocol(task="sorting", name="x", kind="magic")

    def test_decorator_returns_function_unchanged(self):
        import repro.registry as registry_module

        def probe(tree, distribution):
            return None

        try:
            decorated = register_protocol(
                task="sorting", name="test-probe", description="probe"
            )(probe)
            assert decorated is probe
            assert (
                get_protocol("sorting", "test-probe").description == "probe"
            )
        finally:
            registry_module._PROTOCOL_SPECS.pop(("sorting", "test-probe"))


class TestLowerBoundOpts:
    def test_relational_tasks_declare_bound_opts(self):
        assert get_task("equijoin").lower_bound_opts == ("r_tag", "s_tag")
        assert get_task("groupby-aggregate").lower_bound_opts == (
            "tag",
            "payload_bits",
        )

    def test_engine_forwards_bound_opts(self):
        # The group-by bound decodes keys, so it must see the same
        # payload_bits the protocol ran with; a mismatched width would
        # report a bound over garbage keys.
        import numpy as np

        tree = repro.two_level([2, 2], uplink_bandwidth=1.0)
        nodes = tree.left_to_right_compute_order()
        keys = np.arange(8)
        values = np.arange(8)
        dist = repro.Distribution(
            {
                nodes[0]: {
                    "R": repro.encode_tuples(keys, values, payload_bits=32)
                },
                nodes[1]: {
                    "R": repro.encode_tuples(keys, values, payload_bits=32)
                },
            }
        )
        report = repro.run(
            "groupby-aggregate", tree, dist, payload_bits=32, seed=0
        )
        from repro.queries.aggregate import groupby_lower_bound

        direct = groupby_lower_bound(tree, dist, payload_bits=32)
        assert report.lower_bound == pytest.approx(direct.value)
        assert direct.value == pytest.approx(4.0)
