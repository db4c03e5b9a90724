"""The metrics registry: closed spans folded into counters and histograms.

Unit behaviour of the fold table, the snapshot and the Prometheus text;
the identity of every CI ``metrics`` invocation's counters and
histograms with the figures the per-call-site registry produced; and
the fold's consistency with the trace it reads.
"""

import dataclasses
import json
import sys
import threading

import pytest

import repro
from repro import registry as specs
from repro.__main__ import main
from repro.analysis.suites import GRAPH_SUITE_TASKS, TUPLE_SUITE_TASKS
from repro.context import current, use
from repro.engine import run
from repro.errors import ProtocolError
from repro.obs.metrics import (
    FOLDS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    collecting,
    parse_label_key,
    prometheus_text,
    write_snapshot,
)
from repro.obs.tracer import FoldingTracer, SpanEvent, get_tracer, tracing
from repro.registry import get_task
from repro.topology.builders import fat_tree


def _fold(registry, name: str, **attrs) -> dict:
    """Fold one closed span into ``registry``; return its snapshot."""
    registry.fold(SpanEvent(name, 0.0, 1.0, attrs))
    return registry.snapshot()


def _engine(task="a", **attrs) -> dict:
    return {"category": "engine", "task": task, "protocol": "p", **attrs}


class TestFold:
    def test_counter_rows_accumulate_and_labels_split_series(self):
        registry = MetricsRegistry()
        for task in ("a", "a", "b"):
            snap = _fold(registry, "engine.run", **_engine(task))
        assert snap["counters"]["repro_runs_total"] == {
            "protocol=p|status=ok|task=a": 2,
            "protocol=p|status=ok|task=b": 1,
        }

    def test_the_error_attribute_picks_the_status_label(self):
        registry = MetricsRegistry()
        _fold(registry, "engine.run", **_engine(error="ValueError"))
        snap = _fold(
            registry,
            "engine.verify",
            category="verify",
            task="a",
            error="ProtocolError",
        )
        counters = snap["counters"]
        assert counters["repro_runs_total"] == {
            "protocol=p|status=error|task=a": 1
        }
        assert counters["repro_verify_total"] == {"outcome=fail|task=a": 1}

    def test_a_row_skips_spans_without_its_attribute(self):
        registry = MetricsRegistry()
        _fold(registry, "round 0", category="round")
        snap = _fold(registry, "stage 1 join", category="stage", kind="join")
        assert snap == {"counters": {}, "histograms": {}}

    def test_dict_attributes_split_by_key_and_zero_adds_nothing(self):
        registry = MetricsRegistry()
        snap = _fold(
            registry,
            "round 0",
            category="round",
            elements_by_tag={"a": 3, "b": 0},
        )
        assert snap["counters"] == {"repro_round_elements_total": {"tag=a": 3}}

    def test_rows_match_span_names_as_well_as_categories(self):
        registry = MetricsRegistry()
        _fold(registry, "artifact_cache.get", category="cache", misses=1)
        snap = _fold(registry, "artifact_cache.get", category="cache", hits=1)
        assert snap["counters"] == {
            "repro_artifact_cache_hits_total": {"": 1},
            "repro_artifact_cache_misses_total": {"": 1},
        }

    def test_a_span_named_like_its_category_folds_once(self):
        registry = MetricsRegistry()
        snap = _fold(registry, "round", category="round", round_cost=1.0)
        assert snap["counters"]["repro_rounds_total"] == {"": 1}

    @pytest.mark.parametrize(
        "value,bound",
        [(-2, 0.0), (0, 0.0), (0.5, 1.0), (1, 1.0), (1.5, 2.0), (8, 8.0),
         (9, 16.0), (1000, 1024.0)],
    )
    def test_log2_histogram_bucket_placement(self, value, bound):
        registry = MetricsRegistry()
        snap = _fold(registry, "round 0", category="round", round_cost=value)
        state = snap["histograms"]["repro_round_cost"][""]
        assert state["buckets"] == {str(bound): 1}
        assert state["scheme"] == "log2"

    def test_fixed_buckets_overflow_to_inf(self):
        registry = MetricsRegistry()
        _fold(registry, "engine.run", **_engine(wall_time_s=0.001))
        snap = _fold(registry, "engine.run", **_engine(wall_time_s=9999.0))
        state = snap["histograms"]["repro_run_seconds"]["task=a"]
        assert state["buckets"][str(LATENCY_BUCKETS[2])] == 1
        assert state["buckets"]["inf"] == 1
        assert state["count"] == 2
        assert state["sum"] == pytest.approx(9999.001)

    def test_each_family_is_one_kind_with_one_bucket_scheme(self):
        schemes = {}
        for row in FOLDS:
            assert schemes.setdefault(row.family, row.buckets) == row.buckets
            assert (row.buckets is None) == row.family.endswith("_total")


class TestSnapshot:
    def test_snapshot_is_strict_json(self, tmp_path):
        registry = MetricsRegistry()
        _fold(registry, "storage.compact", category="storage", tag="t",
              columns=2)
        payload = _fold(registry, "engine.run", **_engine(wall_time_s=10.0))
        json.dumps(payload, allow_nan=False)
        path = tmp_path / "metrics.json"
        written = write_snapshot(path, registry)
        assert json.loads(path.read_text()) == written == payload

    def test_label_key_round_trip(self):
        registry = MetricsRegistry()
        snap = _fold(registry, "engine.run", **_engine("sort"))
        (key,) = snap["counters"]["repro_runs_total"]
        assert key == "protocol=p|status=ok|task=sort"
        assert parse_label_key(key) == {
            "task": "sort", "protocol": "p", "status": "ok"
        }
        assert parse_label_key("") == {}


class TestPrometheusText:
    def test_families_types_and_cumulative_buckets(self):
        registry = MetricsRegistry()
        for _ in range(3):
            _fold(registry, "engine.run", **_engine("sort"))
        for cost in (3, 100):
            _fold(registry, "round 0", category="round", round_cost=cost)
        text = prometheus_text(registry)
        assert "# TYPE repro_runs_total counter" in text
        assert (
            'repro_runs_total{protocol="p",status="ok",task="sort"} 3' in text
        )
        assert "# TYPE repro_round_cost histogram" in text
        # buckets are cumulative and +Inf closes the ladder
        assert 'repro_round_cost_bucket{le="4"} 1' in text
        assert 'repro_round_cost_bucket{le="128"} 2' in text
        assert 'repro_round_cost_bucket{le="+Inf"} 2' in text
        assert "repro_round_cost_count 2" in text
        assert text.endswith("\n")

    def test_renders_from_snapshot_dict_identically(self):
        registry = MetricsRegistry()
        _fold(registry, "round 0", category="round", round_cost=2.0)
        assert prometheus_text(registry.snapshot()) == prometheus_text(
            registry
        )


class TestInstallation:
    def test_without_a_registry_spans_fold_nowhere(self):
        assert current().registry is None
        with tracing() as tracer:
            with tracer.span("round 0", category="round", round_cost=1.0):
                pass
        assert len(tracer.events) == 1

    def test_threads_sharing_a_context_lose_no_count(self):
        """Eight threads close spans on one folding tracer under a short
        switch interval; the fold runs under the tracer's lock, and a
        lost read-modify-write would drop counts."""
        per_thread = 2_000

        def work(context):
            with use(context):
                tracer = get_tracer()
                for _ in range(per_thread):
                    with tracer.span("round", category="round", round_cost=1):
                        pass

        interval = sys.getswitchinterval()
        with collecting() as registry:
            threads = [
                threading.Thread(target=work, args=(current(),))
                for _ in range(8)
            ]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snap = registry.snapshot()
        assert snap["counters"]["repro_rounds_total"][""] == 8 * per_thread
        histogram = snap["histograms"]["repro_round_cost"][""]
        assert histogram["count"] == 8 * per_thread

    def test_collecting_alone_keeps_no_events_and_counts(self):
        tree, dist = _instance("sorting")
        with collecting() as registry:
            tracer = get_tracer()
            run("sorting", tree, dist)
        assert isinstance(tracer, FoldingTracer)
        assert tracer.events == [] and tracer.dropped == 0
        assert registry.snapshot()["counters"]["repro_rounds_total"][""] > 0


# ---------------------------------------------------------------------- #
# identity: the counters and non-timing histograms of every CI ``metrics``
# invocation (plus a three-relation plan), as the per-call-site registry
# recorded them; each runs with ``--audit strict``
# ---------------------------------------------------------------------- #

IDENTITY = {
    "metrics set-intersection --racks 4 --r-size 300 --s-size 900": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=intersect.R.recv": 900,
            "tag=intersect.S.recv": 900,
        },
        "repro_max_edge_load": {"": ({"256.0": 1}, 233.0, 1)},
        "repro_round_bytes_total": {
            "tag=intersect.R.recv": 2400,
            "tag=intersect.S.recv": 7200,
        },
        "repro_round_cost": {"": ({"64.0": 1}, 58.5, 1)},
        "repro_round_elements_total": {
            "tag=intersect.R.recv": 300,
            "tag=intersect.S.recv": 900,
        },
        "repro_rounds_total": {"": 1},
        "repro_runs_total": {
            "protocol=tree|status=ok|task=set-intersection": 1,
        },
        "repro_verify_total": {"outcome=pass|task=set-intersection": 1},
    },
    "metrics equijoin --racks 4 --r-size 300 --s-size 900": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=join.R.recv": 900,
            "tag=join.S.recv": 900,
        },
        "repro_max_edge_load": {"": ({"256.0": 1}, 238.0, 1)},
        "repro_round_bytes_total": {
            "tag=join.R.recv": 2400,
            "tag=join.S.recv": 7200,
        },
        "repro_round_cost": {"": ({"128.0": 1}, 66.5, 1)},
        "repro_round_elements_total": {
            "tag=join.R.recv": 300,
            "tag=join.S.recv": 900,
        },
        "repro_rounds_total": {"": 1},
        "repro_runs_total": {"protocol=tree|status=ok|task=equijoin": 1},
        "repro_verify_total": {"outcome=pass|task=equijoin": 1},
    },
    "metrics sorting --racks 4 --r-size 600": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=sort.final": 600,
            "tag=sort.samples": 588,
            "tag=sort.splitters": 225,
        },
        "repro_max_edge_load": {
            "": ({"0.0": 1, "1024.0": 1, "16.0": 1, "256.0": 1}, 723.0, 4),
        },
        "repro_round_bytes_total": {
            "tag=sort.final": 4800,
            "tag=sort.samples": 4704,
            "tag=sort.splitters": 120,
        },
        "repro_round_cost": {
            "": ({"0.0": 1, "512.0": 1, "64.0": 1, "8.0": 1}, 322.5, 4),
        },
        "repro_round_elements_total": {
            "tag=sort.final": 600,
            "tag=sort.samples": 588,
            "tag=sort.splitters": 15,
        },
        "repro_rounds_total": {"": 4},
        "repro_runs_total": {"protocol=wts|status=ok|task=sorting": 1},
        "repro_verify_total": {"outcome=pass|task=sorting": 1},
    },
    "metrics groupby-aggregate --racks 4 --r-size 600": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {"tag=aggregate.recv": 593},
        "repro_max_edge_load": {"": ({"128.0": 1}, 118.0, 1)},
        "repro_round_bytes_total": {"tag=aggregate.recv": 4744},
        "repro_round_cost": {"": ({"32.0": 1}, 29.5, 1)},
        "repro_round_elements_total": {"tag=aggregate.recv": 593},
        "repro_rounds_total": {"": 1},
        "repro_runs_total": {
            "protocol=tree|status=ok|task=groupby-aggregate": 1,
        },
        "repro_verify_total": {"outcome=pass|task=groupby-aggregate": 1},
    },
    "metrics cartesian-product --racks 4 --r-size 300 --s-size 300": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=cartesian.R.recv": 900,
            "tag=cartesian.S.recv": 900,
        },
        "repro_max_edge_load": {"": ({"512.0": 1}, 360.0, 1)},
        "repro_round_bytes_total": {
            "tag=cartesian.R.recv": 2400,
            "tag=cartesian.S.recv": 2400,
        },
        "repro_round_cost": {"": ({"256.0": 1}, 140.5, 1)},
        "repro_round_elements_total": {
            "tag=cartesian.R.recv": 300,
            "tag=cartesian.S.recv": 300,
        },
        "repro_rounds_total": {"": 1},
        "repro_runs_total": {
            "protocol=tree|status=ok|task=cartesian-product": 1,
        },
        "repro_verify_total": {"outcome=pass|task=cartesian-product": 1},
    },
    "metrics connected-components --racks 4 --edges 400": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=aggregate.recv": 4242,
            "tag=cc.labels.recv": 1864,
        },
        "repro_max_edge_load": {
            "": ({"128.0": 3, "256.0": 6, "64.0": 1, "8.0": 1}, 1115.0, 11),
        },
        "repro_round_bytes_total": {
            "tag=aggregate.recv": 33936,
            "tag=cc.labels.recv": 4456,
        },
        "repro_round_cost": {
            "": ({"16.0": 1, "32.0": 3, "4.0": 1, "64.0": 6}, 280.5, 11),
        },
        "repro_round_elements_total": {
            "tag=aggregate.recv": 4242,
            "tag=cc.labels.recv": 557,
        },
        "repro_rounds_total": {"": 11},
        "repro_runs_total": {
            "protocol=tree|status=ok|task=connected-components": 1,
        },
        "repro_superstep_elements_total": {
            "phase=cluster-round|task=connected-components": 557,
            "phase=protocol|task=groupby-aggregate": 4242,
        },
        "repro_supersteps_total": {
            "phase=cluster-round|task=connected-components": 5,
            "phase=protocol|task=groupby-aggregate": 6,
        },
        "repro_verify_total": {
            "outcome=pass|task=connected-components": 1,
            "outcome=pass|task=groupby-aggregate": 6,
        },
    },
    (
        "metrics connected-components --racks 4 --edges 400"
        " --protocol uniform-hash"
    ): {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=aggregate.recv": 12056,
            "tag=cc.labels.recv": 4641,
        },
        "repro_max_edge_load": {"": ({"128.0": 7, "512.0": 8}, 3607.0, 15)},
        "repro_round_bytes_total": {
            "tag=aggregate.recv": 96448,
            "tag=cc.labels.recv": 10752,
        },
        "repro_round_cost": {"": ({"128.0": 8, "32.0": 7}, 901.75, 15)},
        "repro_round_elements_total": {
            "tag=aggregate.recv": 12056,
            "tag=cc.labels.recv": 1344,
        },
        "repro_rounds_total": {"": 15},
        "repro_runs_total": {
            "protocol=uniform-hash|status=ok|task=connected-components": 1,
        },
        "repro_superstep_elements_total": {
            "phase=cluster-round|task=connected-components": 1344,
            "phase=protocol|task=groupby-aggregate": 12056,
        },
        "repro_supersteps_total": {
            "phase=cluster-round|task=connected-components": 7,
            "phase=protocol|task=groupby-aggregate": 8,
        },
        "repro_verify_total": {
            "outcome=pass|task=connected-components": 1,
            "outcome=pass|task=groupby-aggregate": 8,
        },
    },
    "metrics connected-components --racks 8 --edges 12000 --protocol gather": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {"tag=cc.gather.recv": 11812},
        "repro_max_edge_load": {"": ({"16384.0": 1}, 11812.0, 1)},
        "repro_round_bytes_total": {"tag=cc.gather.recv": 94496},
        "repro_round_cost": {"": ({"8192.0": 1}, 5906.0, 1)},
        "repro_round_elements_total": {"tag=cc.gather.recv": 11812},
        "repro_rounds_total": {"": 1},
        "repro_runs_total": {
            "protocol=gather|status=ok|task=connected-components": 1,
        },
        "repro_superstep_elements_total": {
            "phase=cluster-round|task=connected-components": 12000,
        },
        "repro_supersteps_total": {
            "phase=cluster-round|task=connected-components": 1,
        },
        "repro_verify_total": {"outcome=pass|task=connected-components": 1},
    },
    "metrics set-intersection --racks 32 --r-size 2000 --s-size 6000": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=intersect.R.recv": 2000,
            "tag=intersect.S.recv": 6000,
        },
        "repro_max_edge_load": {"": ({"512.0": 1}, 288.0, 1)},
        "repro_round_bytes_total": {
            "tag=intersect.R.recv": 16000,
            "tag=intersect.S.recv": 48000,
        },
        "repro_round_cost": {"": ({"128.0": 1}, 72.0, 1)},
        "repro_round_elements_total": {
            "tag=intersect.R.recv": 2000,
            "tag=intersect.S.recv": 6000,
        },
        "repro_rounds_total": {"": 1},
        "repro_runs_total": {
            "protocol=tree|status=ok|task=set-intersection": 1,
        },
        "repro_verify_total": {"outcome=pass|task=set-intersection": 1},
    },
    (
        "metrics set-intersection --racks 32 --r-size 2000 --s-size 6000"
        " --protocol uniform-hash"
    ): {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=intersect.R.recv": 2000,
            "tag=intersect.S.recv": 6000,
        },
        "repro_max_edge_load": {"": ({"512.0": 1}, 269.0, 1)},
        "repro_round_bytes_total": {
            "tag=intersect.R.recv": 16000,
            "tag=intersect.S.recv": 48000,
        },
        "repro_round_cost": {"": ({"128.0": 1}, 67.25, 1)},
        "repro_round_elements_total": {
            "tag=intersect.R.recv": 2000,
            "tag=intersect.S.recv": 6000,
        },
        "repro_rounds_total": {"": 1},
        "repro_runs_total": {
            "protocol=uniform-hash|status=ok|task=set-intersection": 1,
        },
        "repro_verify_total": {"outcome=pass|task=set-intersection": 1},
    },
    "metrics sorting --racks 32 --r-size 4000": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=sort.final": 4000,
            "tag=sort.samples": 4000,
            "tag=sort.splitters": 1046529,
        },
        "repro_max_edge_load": {
            "": ({"0.0": 1, "1024.0": 1, "256.0": 1, "4096.0": 1}, 5209.0, 4),
        },
        "repro_round_bytes_total": {
            "tag=sort.final": 32000,
            "tag=sort.samples": 32000,
            "tag=sort.splitters": 8184,
        },
        "repro_round_cost": {
            "": ({"0.0": 1, "2048.0": 1, "512.0": 1, "64.0": 1}, 2557.0, 4),
        },
        "repro_round_elements_total": {
            "tag=sort.final": 4000,
            "tag=sort.samples": 4000,
            "tag=sort.splitters": 1023,
        },
        "repro_rounds_total": {"": 4},
        "repro_runs_total": {"protocol=wts|status=ok|task=sorting": 1},
        "repro_verify_total": {"outcome=pass|task=sorting": 1},
    },
    "metrics sorting --racks 64 --r-size 400000 --protocol wts": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=sort.final": 400000,
            "tag=sort.samples": 347475,
            "tag=sort.splitters": 16769025,
        },
        "repro_max_edge_load": {
            "": (
                {"0.0": 1, "4096.0": 1, "524288.0": 1, "8192.0": 1},
                359083.0,
                4,
            ),
        },
        "repro_round_bytes_total": {
            "tag=sort.final": 3200000,
            "tag=sort.samples": 2779800,
            "tag=sort.splitters": 32760,
        },
        "repro_round_cost": {
            "": ({"0.0": 1, "2048.0": 2, "262144.0": 1}, 177642.25, 4),
        },
        "repro_round_elements_total": {
            "tag=sort.final": 400000,
            "tag=sort.samples": 347475,
            "tag=sort.splitters": 4095,
        },
        "repro_rounds_total": {"": 4},
        "repro_runs_total": {"protocol=wts|status=ok|task=sorting": 1},
        "repro_verify_total": {"outcome=pass|task=sorting": 1},
    },
    "metrics sorting --racks 64 --r-size 400000 --protocol terasort": {
        "repro_artifact_cache_misses_total": {"": 1},
        "repro_delivered_elements_total": {
            "tag=sort.final": 400000,
            "tag=sort.samples": 347803,
            "tag=sort.splitters": 16769025,
        },
        "repro_max_edge_load": {
            "": ({"4096.0": 1, "524288.0": 1, "8192.0": 1}, 358056.0, 3),
        },
        "repro_round_bytes_total": {
            "tag=sort.final": 3200000,
            "tag=sort.samples": 2782424,
            "tag=sort.splitters": 32760,
        },
        "repro_round_cost": {"": ({"2048.0": 2, "262144.0": 1}, 177466.5, 3)},
        "repro_round_elements_total": {
            "tag=sort.final": 400000,
            "tag=sort.samples": 347803,
            "tag=sort.splitters": 4095,
        },
        "repro_rounds_total": {"": 3},
        "repro_runs_total": {"protocol=terasort|status=ok|task=sorting": 1},
        "repro_verify_total": {"outcome=pass|task=sorting": 1},
    },
    "plan --relations 3 --rows 300": {
        "repro_artifact_cache_misses_total": {"": 48},
        "repro_delivered_elements_total": {
            "tag=gather.recv.R": 2220,
            "tag=gather.recv.S": 4440,
            "tag=join.R.recv": 5748,
            "tag=join.S.recv": 8400,
        },
        "repro_max_edge_load": {
            "": (
                {
                    "1024.0": 4, "128.0": 12, "256.0": 19, "512.0": 10,
                    "64.0": 3,
                },
                10199.0,
                48,
            ),
        },
        "repro_plan_stages_total": {"kind=join": 48},
        "repro_round_bytes_total": {
            "tag=gather.recv.R": 17760,
            "tag=gather.recv.S": 35520,
            "tag=join.R.recv": 43232,
            "tag=join.S.recv": 67200,
        },
        "repro_round_cost": {
            "": (
                {
                    "1024.0": 4, "128.0": 16, "16.0": 1, "256.0": 4,
                    "32.0": 7, "512.0": 4, "64.0": 12,
                },
                6062.25,
                48,
            ),
        },
        "repro_round_elements_total": {
            "tag=gather.recv.R": 2220,
            "tag=gather.recv.S": 4440,
            "tag=join.R.recv": 5404,
            "tag=join.S.recv": 8400,
        },
        "repro_rounds_total": {"": 48},
        "repro_runs_total": {
            "protocol=gather|status=ok|task=equijoin": 20,
            "protocol=tree|status=ok|task=equijoin": 4,
            "protocol=uniform-hash|status=ok|task=equijoin": 24,
        },
        "repro_stage_cost_ratio": {
            "kind=join": (
                {"0.5": 2, "0.75": 8, "1.0": 26, "1.5": 12},
                44.417204401477946,
                48,
            ),
        },
        "repro_verify_total": {"outcome=pass|task=equijoin": 48},
    },
}


def _families(snapshot: dict) -> dict:
    """Counters and histograms in one dict, timing families dropped
    (``repro_ahead_seconds`` exists only where a process may use two CPUs)."""
    histograms = {
        name: {
            key: (state["buckets"], state["sum"], state["count"])
            for key, state in family.items()
        }
        for name, family in snapshot["histograms"].items()
        if not name.endswith("_seconds")
    }
    return {**snapshot["counters"], **histograms}


@pytest.mark.parametrize("command", sorted(IDENTITY))
def test_ci_invocations_count_what_they_counted(command, tmp_path, capsys):
    argv = command.split()
    path = tmp_path / "metrics.json"
    flag = "--output" if argv[0] == "metrics" else "--metrics"
    assert main([*argv, "--audit", "strict", flag, str(path)]) == 0
    capsys.readouterr()
    assert _families(json.loads(path.read_text())) == IDENTITY[command]


# ---------------------------------------------------------------------- #
# consistency: the fold against the trace it reads
# ---------------------------------------------------------------------- #


def _instance(task: str):
    tree = fat_tree(2, 2)
    if task in TUPLE_SUITE_TASKS:
        dist = repro.random_tuple_distribution(
            tree, r_size=200, s_size=200, seed=1
        )
    elif task in GRAPH_SUITE_TASKS:
        dist = repro.random_graph_distribution(tree, num_edges=150, seed=1)
    else:
        dist = repro.random_distribution(tree, r_size=200, s_size=200, seed=1)
    return tree, dist


def _runs(snapshot: dict) -> dict:
    """``repro_runs_total`` as ``{(task, status): count}``."""
    runs = {}
    for key, count in snapshot["counters"]["repro_runs_total"].items():
        labels = parse_label_key(key)
        runs[labels["task"], labels["status"]] = count
    return runs


class TestFoldConsistency:
    @pytest.mark.parametrize("task", repro.tasks())
    def test_counts_equal_the_spans_they_fold(self, task):
        tree, dist = _instance(task)
        with tracing() as tracer, collecting() as registry:
            run(task, tree, dist)
        snap = registry.snapshot()
        categories = [e.attrs.get("category") for e in tracer.events]
        assert snap["counters"]["repro_rounds_total"][""] == (
            categories.count("round")
        )
        engines = [e for e in tracer.events if e.attrs["category"] == "engine"]
        runs = _runs(snap)
        # every engine span is one run (graph tasks run their
        # supersteps through the engine), the outermost one the task's
        assert sum(runs.values()) == len(engines)
        assert runs[task, "ok"] == sum(e.depth == 0 for e in engines) == 1

    @pytest.mark.parametrize("task", repro.tasks())
    def test_nesting_order_gives_equal_snapshots(self, task):
        tree, dist = _instance(task)
        with tracing(), collecting() as outer:
            run(task, tree, dist)
        with collecting() as inner, tracing():
            run(task, tree, dist)
        assert _families(outer.snapshot()) == _families(inner.snapshot())

    def test_a_raising_protocol_counts_once_as_an_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ProtocolError("boom")

        spec = repro.get_protocol("sorting", get_task("sorting").default_protocol)
        monkeypatch.setitem(
            specs._PROTOCOL_SPECS,
            (spec.task, spec.name),
            dataclasses.replace(spec, func=broken),
        )
        tree, dist = _instance("sorting")
        with collecting() as registry, pytest.raises(ProtocolError):
            run("sorting", tree, dist)
        snap = registry.snapshot()
        assert _runs(snap) == {("sorting", "error"): 1}
        assert "repro_verify_total" not in snap["counters"]

    def test_a_failing_verifier_counts_once_as_a_fail(self, monkeypatch):
        def failing(*args):
            raise ProtocolError("wrong answer")

        spec = get_task("sorting")
        monkeypatch.setitem(
            specs._TASK_SPECS,
            spec.name,
            dataclasses.replace(spec, check=failing),
        )
        tree, dist = _instance("sorting")
        with collecting() as registry, pytest.raises(ProtocolError):
            run("sorting", tree, dist)
        counters = registry.snapshot()["counters"]
        assert counters["repro_verify_total"] == {
            "outcome=fail|task=sorting": 1
        }
        assert _runs(registry.snapshot()) == {("sorting", "error"): 1}
