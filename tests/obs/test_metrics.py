"""Metrics registry unit behaviour: instruments, snapshots, merging."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    collecting,
    get_registry,
    merge_snapshots,
    parse_label_key,
    prometheus_text,
    write_snapshot,
)


class TestInstruments:
    def test_counter_accumulates_and_labels_split_series(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", task="a").inc()
        registry.counter("runs_total", task="a").inc(4)
        registry.counter("runs_total", task="b").inc()
        snap = registry.snapshot()
        assert snap["counters"]["runs_total"] == {"task=a": 5, "task=b": 1}

    def test_gauge_sets_and_overwrites(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pool_size")
        gauge.set(3)
        registry.gauge("pool_size").set(7.5)
        assert registry.snapshot()["gauges"]["pool_size"][""] == 7.5

    def test_same_name_same_labels_is_the_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", tag="t")
        second = registry.counter("x_total", tag="t")
        assert first is second

    @pytest.mark.parametrize(
        "value,bound",
        [(-2, 0.0), (0, 0.0), (0.5, 1.0), (1, 1.0), (1.5, 2.0), (8, 8.0),
         (9, 16.0), (1000, 1024.0)],
    )
    def test_log2_histogram_bucket_placement(self, value, bound):
        registry = MetricsRegistry()
        registry.histogram("h").observe(value)
        buckets = registry.snapshot()["histograms"]["h"][""]["buckets"]
        assert buckets == {str(bound): 1}

    def test_fixed_buckets_overflow_to_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=LATENCY_BUCKETS)
        hist.observe(0.001)
        hist.observe(9999.0)
        state = registry.snapshot()["histograms"]["lat"][""]
        assert state["buckets"][str(LATENCY_BUCKETS[2])] == 1
        assert state["buckets"]["inf"] == 1
        assert state["count"] == 2
        assert state["sum"] == pytest.approx(9999.001)

    def test_histogram_scheme_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets="log2")
        with pytest.raises(AnalysisError):
            registry.histogram("h", buckets=LATENCY_BUCKETS)


class TestSnapshotAndMerge:
    def test_snapshot_is_strict_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total", tag="t").inc()
        registry.histogram("h").observe(3)
        registry.histogram("lat", buckets=(0.5, 2.0)).observe(10.0)
        payload = registry.snapshot()
        json.dumps(payload, allow_nan=False)
        path = tmp_path / "metrics.json"
        written = write_snapshot(path, registry)
        assert json.loads(path.read_text()) == written == payload

    def test_merge_adds_counters_and_buckets_gauges_overwrite(self):
        left = MetricsRegistry()
        left.counter("c_total").inc(2)
        left.gauge("g").set(1.0)
        left.histogram("h").observe(3)
        right = MetricsRegistry()
        right.counter("c_total").inc(5)
        right.counter("other_total", tag="x").inc()
        right.gauge("g").set(9.0)
        right.histogram("h").observe(3)
        right.histogram("h").observe(100)
        left.merge_snapshot(right.snapshot())
        snap = left.snapshot()
        assert snap["counters"]["c_total"][""] == 7
        assert snap["counters"]["other_total"] == {"tag=x": 1}
        assert snap["gauges"]["g"][""] == 9.0
        hist = snap["histograms"]["h"][""]
        assert hist["count"] == 3
        assert hist["buckets"] == {"4.0": 2, "128.0": 1}

    def test_label_key_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c_total", task="sort", backend="sim").inc()
        (key,) = registry.snapshot()["counters"]["c_total"]
        assert parse_label_key(key) == {"task": "sort", "backend": "sim"}
        assert parse_label_key("") == {}


def _registry_from(ops) -> dict:
    """Build a snapshot from generated (kind, label, value) operations."""
    registry = MetricsRegistry()
    for kind, label, value in ops:
        if kind == "counter":
            registry.counter("c_total", tag=label).inc(value)
        else:
            registry.histogram("h_total", tag=label).observe(value)
    return registry.snapshot()


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["counter", "histogram"]),
        st.sampled_from(["a", "b"]),
        st.integers(min_value=0, max_value=2**40),
    ),
    max_size=12,
)


class TestMergeAlgebra:
    @given(_OPS, _OPS, _OPS)
    def test_merge_is_associative(self, ops_a, ops_b, ops_c):
        a, b, c = map(_registry_from, (ops_a, ops_b, ops_c))
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right

    @given(_OPS, _OPS)
    def test_counter_and_histogram_merge_commutes(self, ops_a, ops_b):
        # gauges are last-writer-wins, so commutativity only holds for
        # the additive families — which is what rank merging relies on
        a, b = map(_registry_from, (ops_a, ops_b))
        assert merge_snapshots(a, b) == merge_snapshots(b, a)


class TestPrometheusText:
    def test_families_types_and_cumulative_buckets(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_total", task="sort").inc(3)
        registry.gauge("repro_last_ratio").set(1.5)
        hist = registry.histogram("repro_cost")
        hist.observe(3)
        hist.observe(100)
        text = prometheus_text(registry)
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{task="sort"} 3' in text
        assert "# TYPE repro_last_ratio gauge" in text
        assert "# TYPE repro_cost histogram" in text
        # buckets are cumulative and +Inf closes the ladder
        assert 'repro_cost_bucket{le="4"} 1' in text
        assert 'repro_cost_bucket{le="128"} 2' in text
        assert 'repro_cost_bucket{le="+Inf"} 2' in text
        assert "repro_cost_count 2" in text
        assert text.endswith("\n")

    def test_renders_from_snapshot_dict_identically(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        registry.histogram("h").observe(2)
        assert prometheus_text(registry.snapshot()) == prometheus_text(
            registry
        )


class TestInstallation:
    def test_default_registry_is_null_and_records_nothing(self):
        registry = get_registry()
        assert isinstance(registry, NullRegistry)
        assert registry.enabled is False
        registry.counter("x_total", tag="t").inc()
        registry.histogram("h").observe(5)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_summary_collapses_histograms(self):
        with collecting() as registry:
            registry.counter("c_total", tag="t").inc(2)
            hist = registry.histogram("h")
            hist.observe(3)
            hist.observe(5)
        summary = registry.summary()
        assert summary["counters"]["c_total"] == {"tag=t": 2}
        assert summary["histograms"]["h"][""] == {"count": 2, "sum": 8.0}
