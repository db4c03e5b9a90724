"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["--r-size", "200", "--s-size", "200", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 reproduction" in out
        assert "set-intersection" in out

    def test_table1_verbose(self, capsys):
        assert (
            main(
                ["--r-size", "200", "--s-size", "200", "--verbose", "table1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "All runs" in out

    def test_compare(self, capsys):
        assert main(["--r-size", "400", "--s-size", "400", "compare"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "intersection" in out

    def test_topology(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "star-uniform(8)" in out
        assert "[v1]" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    @pytest.mark.parametrize("argv", [["bench"], ["bench", "speed"]])
    def test_bench_without_valid_subcommand_exits_2(self, argv, capsys):
        """Bare ``bench`` used to fall back to the (now deleted) speed
        A/B; both spellings are plain usage errors — no alias."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "available: scale, serve, check" in captured.err
        assert captured.out == ""

    def test_bench_unknown_subcommand_rejected(self, capsys):
        assert main(["bench", "psychic"]) == 2
        assert "unknown bench subcommand" in capsys.readouterr().err

    def test_table1_covers_relational_tasks(self, capsys):
        assert main(["--r-size", "150", "--s-size", "150", "table1"]) == 0
        out = capsys.readouterr().out
        assert "equijoin" in out
        assert "groupby-aggregate" in out

    def test_table1_covers_graph_tasks(self, capsys):
        assert main(["--r-size", "150", "--s-size", "150", "table1"]) == 0
        out = capsys.readouterr().out
        assert "connected-components" in out
        assert "triangle-count" in out

    def test_protocols_lists_graph_tasks(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "connected-components" in out
        assert "triangle-count" in out

    def test_protocols_json(self, capsys):
        import json

        assert main(["--json", "protocols"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {(row["task"], row["name"]) for row in payload}
        assert ("connected-components", "tree") in entries
        assert ("triangle-count", "optimized") in entries
        assert all("kind" in row and "description" in row for row in payload)

    def test_compare_json(self, capsys):
        import json

        assert (
            main(
                ["--r-size", "300", "--s-size", "300", "--json", "compare"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 6  # three tasks x (aware, baseline)
        assert {row["task"] for row in payload} == {
            "set-intersection",
            "cartesian-product",
            "sorting",
        }
        assert all("cost" in row and "ratio" in row for row in payload)


class TestServeCommand:
    def test_serve_table(self, capsys):
        assert main(["--racks", "3", "--queries", "24", "serve"]) == 0
        out = capsys.readouterr().out
        assert "Warm session serving" in out
        assert "fat-tree(3x3)" in out
        assert "artifact hits/misses" in out

    def test_serve_json(self, capsys):
        import json

        assert (
            main(["--racks", "3", "--queries", "24", "--json", "serve"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == 24
        assert payload["task_queries"] == 18
        assert payload["plan_queries"] == 6
        assert payload["session"]["runs"] == 18
        assert payload["session"]["artifact_cache"]["misses"] == 1
        assert payload["total_cost"] > 0

    def test_serve_process_backend(self, capsys):
        assert (
            main(
                [
                    "--racks",
                    "3",
                    "--queries",
                    "8",
                    "--backend",
                    "process",
                    "--num-workers",
                    "2",
                    "--json",
                    "serve",
                ]
            )
            == 0
        )
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["session"]["backend"] == "process"

    def test_bench_serve_small(self, capsys, tmp_path, monkeypatch):
        import json

        trajectory = tmp_path / "BENCH_SERVE.json"
        monkeypatch.setenv("BENCH_SERVE_JSON", str(trajectory))
        assert main(["--small", "bench", "serve"]) == 0
        out = capsys.readouterr().out
        assert "Warm session vs cold one-shot engine" in out
        assert "speedup" in out
        payload = json.loads(trajectory.read_text())
        assert payload["benchmark"] == "bench_serve"
        assert payload["runs"][0]["grid"] == "small"
        for case in payload["runs"][0]["cases"]:
            assert case["identical"] is True
            assert case["speedup"] >= case["min_speedup"]


class TestGraphsCommand:
    def test_graphs_table(self, capsys):
        assert main(["--edges", "200", "graphs"]) == 0
        out = capsys.readouterr().out
        assert "Graph workloads" in out
        assert "cc speedup" in out
        assert "star-hetero(8)" in out

    def test_graphs_json(self, capsys):
        import json

        assert main(["--edges", "200", "--json", "graphs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        tasks = {row["task"] for row in payload}
        assert tasks == {"connected-components", "triangle-count"}
        assert all("supersteps" in row for row in payload)


class TestPlanCommand:
    def test_plan_explain_runs_chain_on_suite(self, capsys):
        assert main(["--rows", "300", "--explain", "plan"]) == 0
        out = capsys.readouterr().out
        assert "optimized plan" in out  # --explain printed physical plans
        assert "Query planner: 3-relation chain join" in out
        assert "speedup vs gather" in out

    def test_optimized_beats_gather_on_every_topology(self, capsys):
        # The headline acceptance claim: across the standard suite the
        # optimized plan's measured cost never exceeds gather-everything.
        assert main(["--rows", "400", "plan"]) == 0
        out = capsys.readouterr().out
        table_lines = [
            line
            for line in out.splitlines()
            if line and ("star" in line or "tree" in line or "level" in line
                         or "caterpillar" in line)
            and "x" in line.split()[-1]
        ]
        assert len(table_lines) >= 6
        for line in table_lines:
            speedup = float(line.split()[-1].rstrip("x"))
            assert speedup >= 1.0, line

    def test_plan_relations_flag(self, capsys):
        assert main(["--rows", "200", "--relations", "4", "plan"]) == 0
        out = capsys.readouterr().out
        assert "4-relation chain join" in out
