"""Unit tests for run reports and aggregation."""

import json
import math

import pytest

from repro.errors import AnalysisError
from repro.report import (
    GraphRunReport,
    PlanReport,
    RunReport,
    _jsonify,
    aggregate,
    summarize_reports,
)


def report(**overrides) -> RunReport:
    defaults = dict(
        task="sorting",
        protocol="wts",
        topology="star(4)",
        placement="uniform",
        input_size=100,
        rounds=4,
        cost=50.0,
        lower_bound=25.0,
    )
    defaults.update(overrides)
    return RunReport(**defaults)


class TestRunReport:
    def test_ratio(self):
        assert report().ratio == 2.0

    def test_zero_bound_zero_cost(self):
        assert report(cost=0.0, lower_bound=0.0).ratio == 0.0

    def test_zero_bound_positive_cost(self):
        assert report(lower_bound=0.0).ratio == float("inf")

    def test_as_row_lengths_match_headers(self):
        from repro.report import REPORT_HEADERS

        assert len(report().as_row()) == len(REPORT_HEADERS)


class TestSummaries:
    def test_summarize_renders_all_rows(self):
        table = summarize_reports([report(), report(protocol="terasort")])
        assert "wts" in table
        assert "terasort" in table

    def test_summarize_empty_raises(self):
        with pytest.raises(AnalysisError):
            summarize_reports([])

    def test_aggregate_per_task(self):
        rows = [
            report(),
            report(cost=100.0),
            report(task="set-intersection", rounds=1, cost=30.0),
        ]
        summary = aggregate(rows)
        assert summary["sorting"]["runs"] == 2
        assert summary["sorting"]["max_rounds"] == 4
        assert summary["sorting"]["max_ratio"] == 4.0
        assert summary["set-intersection"]["max_rounds"] == 1

    def test_aggregate_ignores_infinite_ratios_in_max(self):
        rows = [report(), report(lower_bound=0.0)]
        summary = aggregate(rows)
        assert summary["sorting"]["max_ratio"] == 2.0

    def test_aggregate_all_infinite_ratios_yield_none(self):
        # regression: the summary used to emit float("inf"), which
        # json.dumps turns into the non-strict `Infinity` token
        summary = aggregate([report(lower_bound=0.0)])
        assert summary["sorting"]["max_ratio"] is None
        assert summary["sorting"]["mean_ratio"] is None
        json.loads(json.dumps(summary, allow_nan=False))


class TestStrictJson:
    """Every serialized report must pass ``json.dumps(allow_nan=False)``."""

    def test_run_report_with_infinite_ratio(self):
        row = report(lower_bound=0.0, meta={"rho": float("inf")})
        payload = json.loads(json.dumps(row.to_dict(), allow_nan=False))
        assert payload["ratio"] is None
        assert payload["meta"]["rho"] is None

    def test_nan_in_meta_becomes_null(self):
        row = report(meta={"skew": float("nan"), "arr": [1.0, float("-inf")]})
        payload = json.loads(json.dumps(row.to_dict(), allow_nan=False))
        assert payload["meta"]["skew"] is None
        assert payload["meta"]["arr"] == [1.0, None]

    def test_plan_report_round_trips_strictly(self):
        plan = PlanReport(
            query="q",
            strategy="optimized",
            topology="star(4)",
            stages=(report(lower_bound=0.0),),
            estimated_cost=10.0,
            output_rows=3,
            meta={"weights": {float("inf"), 2.0}},
        )
        payload = json.loads(json.dumps(plan.to_dict(), allow_nan=False))
        assert payload["stages"][0]["ratio"] is None
        assert PlanReport.from_dict(payload).query == "q"

    def test_graph_report_infinite_ratio_serializes(self):
        graph = GraphRunReport(
            task="connected-components",
            protocol="tree",
            topology="star(4)",
            placement="uniform",
            num_vertices=5,
            num_edges=4,
            supersteps=(report(),),
            lower_bound=0.0,
            converged=True,
        )
        assert graph.cost > 0 and math.isinf(graph.ratio)
        payload = json.loads(json.dumps(graph.to_dict(), allow_nan=False))
        assert payload["ratio"] is None

    def test_jsonify_sorts_mixed_type_sets_deterministically(self):
        # regression: sorted() over {1, "a"} raises TypeError
        result = _jsonify(frozenset({1, "a", 2.5}))
        assert result == [2.5, 1, "a"]  # (type name, repr) order
        json.loads(json.dumps(result, allow_nan=False))

    def test_jsonify_orders_homogeneous_sets_numerically(self):
        assert _jsonify(frozenset({10, 2})) == [2, 10]
