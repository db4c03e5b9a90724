"""Regression sentinel: verdicts over bench trajectories, real and synthetic."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import AnalysisError
from repro.obs.regress import (
    Band,
    check_trajectory,
    check_trajectory_file,
    load_trajectory,
    overall_verdict,
    regression_table,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _speed_run(speedup=5.0, *, grid="full", **overrides):
    case = {
        "name": "uniform-hash shuffle",
        "topology": "fat-tree(8x8)",
        "nodes": 64,
        "elements": 1_000_000,
        "seconds": 0.10 / speedup,
        "speedup": speedup,
        "cost_elements": 27478.75,
        "identical": True,
    }
    case.update(overrides)
    return {"date": "2026-08-07", "grid": grid, "cases": [case]}


def _speed_file(*runs):
    # a benchmark name with no entry in BANDS: resolves to DEFAULT_BANDS
    # (speedup fails below 0.85x, warns below 0.95x)
    return {"benchmark": "bench_synthetic", "unit": "seconds", "runs": list(runs)}


class TestCommittedTrajectories:
    @pytest.mark.parametrize(
        "name", ["BENCH_SCALE.json", "BENCH_SERVE.json"]
    )
    def test_committed_file_does_not_fail(self, name):
        verdict, checks = check_trajectory_file(REPO_ROOT / name)
        assert verdict in ("pass", "warn")
        assert checks


class TestVerdicts:
    def test_synthetic_twenty_percent_speedup_regression_fails(self):
        baseline = _speed_run(5.0)
        regressed = _speed_run(5.0 * 0.8)
        checks = check_trajectory(_speed_file(baseline, baseline, regressed))
        assert overall_verdict(checks) == "fail"
        (speedup_check,) = [c for c in checks if c.metric == "speedup"]
        assert speedup_check.verdict == "fail"
        assert speedup_check.ratio == pytest.approx(0.8)

    def test_small_drift_within_band_passes(self):
        checks = check_trajectory(
            _speed_file(_speed_run(5.0), _speed_run(4.9))
        )
        assert overall_verdict(checks) == "pass"

    def test_warn_band_between_warn_and_fail(self):
        checks = check_trajectory(
            _speed_file(_speed_run(5.0), _speed_run(4.5))
        )
        assert overall_verdict(checks) == "warn"

    def test_single_run_passes_with_no_baseline(self):
        checks = check_trajectory(_speed_file(_speed_run(5.0)))
        assert overall_verdict(checks) == "pass"
        assert any(c.note == "no baseline" for c in checks)

    def test_baseline_is_median_of_prior_runs(self):
        runs = [_speed_run(s) for s in (4.0, 6.0, 100.0, 5.9)]
        checks = check_trajectory(_speed_file(*runs))
        (speedup_check,) = [c for c in checks if c.metric == "speedup"]
        assert speedup_check.baseline == 6.0  # median, not mean
        assert speedup_check.verdict == "pass"

    def test_other_grid_runs_do_not_baseline(self):
        # a tiny CI grid must not baseline the full local grid
        runs = [_speed_run(100.0, grid="small"), _speed_run(5.0)]
        checks = check_trajectory(_speed_file(*runs))
        assert overall_verdict(checks) == "pass"
        assert any(c.note == "no baseline" for c in checks)

    def test_false_identity_flag_fails_without_any_baseline(self):
        checks = check_trajectory(
            _speed_file(_speed_run(5.0, identical=False))
        )
        assert overall_verdict(checks) == "fail"
        (flag_check,) = [
            c for c in checks if c.metric == "identical"
        ]
        assert flag_check.verdict == "fail"

    def test_cost_drift_from_prior_runs_fails(self):
        checks = check_trajectory(
            _speed_file(
                _speed_run(5.0),
                _speed_run(5.0, cost_elements=99999.0),
            )
        )
        assert overall_verdict(checks) == "fail"
        (cost_check,) = [c for c in checks if c.metric == "cost_elements"]
        assert "drifted" in cost_check.note


class TestBands:
    def test_lower_is_better_normalization(self):
        band = Band("seconds", higher_is_better=False, warn_below=0.5)
        assert band.normalized(2.0, 1.0) == pytest.approx(0.5)
        assert band.verdict(0.49) == "warn"
        assert band.verdict(0.5) == "pass"

    def test_zero_baseline_is_not_a_crash(self):
        band = Band("speedup", fail_below=0.85)
        assert band.normalized(1.0, 0.0) is None
        assert band.verdict(None) == "pass"

    def test_custom_bands_override_defaults(self):
        runs = _speed_file(_speed_run(5.0), _speed_run(4.0))
        strict = check_trajectory(
            runs, bands=(Band("speedup", fail_below=0.95),)
        )
        assert overall_verdict(strict) == "fail"


class TestLoading:
    def test_malformed_files_raise_analysis_error(self, tmp_path):
        missing = tmp_path / "absent.json"
        with pytest.raises(AnalysisError, match="cannot read"):
            load_trajectory(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(AnalysisError, match="not JSON"):
            load_trajectory(bad)
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"benchmark": "x", "runs": []}))
        with pytest.raises(AnalysisError, match="no runs"):
            load_trajectory(empty)
        caseless = tmp_path / "caseless.json"
        caseless.write_text(json.dumps({"runs": [{"date": "x"}]}))
        with pytest.raises(AnalysisError, match="cases"):
            load_trajectory(caseless)

    def test_table_rows_align_with_checks(self):
        checks = check_trajectory(
            _speed_file(_speed_run(5.0), _speed_run(4.0))
        )
        headers, rows = regression_table(checks)
        assert len(rows) == len(checks)
        assert headers[-1] == "verdict"
        assert all(len(row) == len(headers) for row in rows)


class TestCli:
    def test_bench_check_exit_codes(self, tmp_path, capsys):
        from repro.__main__ import main

        good = tmp_path / "good.json"
        good.write_text(
            json.dumps(_speed_file(_speed_run(5.0), _speed_run(5.0)))
        )
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(_speed_file(_speed_run(5.0), _speed_run(4.0 * 0.8)))
        )
        assert main(["bench", "check", str(good)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["bench", "check", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_bench_check_json_payload(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "solo.json"
        path.write_text(json.dumps(_speed_file(_speed_run(5.0))))
        assert main(["bench", "check", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "pass"
        assert payload[str(path)]["checks"]
