"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import _build_parser, _rack_tree, main
from repro.parallel.pool import shutdown_pools


def _actions_by_dest() -> dict:
    return {action.dest: action for action in _build_parser()._actions}


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

    def test_table1_on_workers_prints_the_in_process_table(self, capsys):
        argv = ["--r-size", "120", "--s-size", "120", "table1"]
        try:
            assert main(argv) == 0
            here = capsys.readouterr().out
            assert main(["--workers", "2", *argv]) == 0
            pooled = capsys.readouterr().out
        finally:
            shutdown_pools()

        def without_wall(table: str) -> list:
            # the last column is wall time, the only one allowed to differ
            return [line.rsplit(None, 1)[0] for line in table.splitlines()]

        assert "set-intersection" in here
        assert without_wall(pooled) == without_wall(here)

    @pytest.mark.parametrize(
        "hook",
        [["--audit", "record"], ["--audit", "strict"], ["--metrics", "m.json"]],
    )
    def test_table1_on_workers_refuses_audit_and_metrics(
        self, hook, capsys, tmp_path, monkeypatch
    ):
        """Pooled plans run under each worker's default context, so an
        audit or metrics snapshot of them would check nothing."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["--workers", "2", *hook, "table1"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers cannot be combined with --audit" in captured.err
        assert not (tmp_path / "m.json").exists()

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

    def test_bench_command_is_gone(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "scale"],
            ["bench", "serve", "--small"],
            ["bench", "check", "trajectory.json"],
            ["--small", "table1"],
            ["metrics", "sorting", "trajectory.json"],
        ],
    )
    def test_removed_bench_surface_is_a_usage_error(self, argv, capsys):
        """The ``bench`` command, ``--small`` and the trailing file
        positional are gone: every old spelling is an argparse error."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", [["--backend", "process"], ["--num-workers", "2"]])
    @pytest.mark.parametrize(
        "command", ["table1", "compare", "serve", "trace", "metrics"]
    )
    def test_removed_backend_flags_are_a_usage_error(self, command, flag, capsys):
        """``--backend`` / ``--num-workers`` went with rank-side
        parallelism: every command that took them now rejects them
        instead of ignoring them."""
        with pytest.raises(SystemExit) as exit_info:
            main([*flag, command])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "task, protocol, size_flag",
        [
            ("set-intersection", "gather", "--r-size"),
            ("sorting", "gather", "--r-size"),
            ("cartesian-product", "gather", "--r-size"),
            ("triangle-count", "tree", "--edges"),
        ],
    )
    def test_unregistered_protocol_exits_2_naming_the_choices(
        self, task, protocol, size_flag, capsys
    ):
        from repro.registry import protocols_for

        argv = ["metrics", task, "--protocol", protocol, "--racks", "2"]
        assert main(argv + [size_flag, "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown protocol {protocol!r} for task {task!r}" in captured.err
        assert str(sorted(protocols_for(task))) in captured.err

    def test_docstring_names_only_live_commands(self):
        import repro.__main__ as cli

        choices = set(_actions_by_dest()["command"].choices)
        named = [
            line.split()[3]
            for line in cli.__doc__.splitlines()
            if line.strip().startswith("python -m repro ")
        ]
        assert named
        assert set(named) <= choices

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


class TestHelp:
    """A flag's help opens with ``cmd1/cmd2/...:`` — exactly the
    commands whose handlers read it."""

    @pytest.mark.parametrize(
        "dest, readers",
        [
            ("explain", {"plan"}),
            ("relations", {"plan"}),
            ("rows", {"plan"}),
            ("placement", {"plan", "graphs", "trace", "metrics"}),
            ("edges", {"graphs", "trace", "metrics"}),
            (
                "json",
                {"protocols", "compare", "graphs", "serve", "metrics"},
            ),
            ("queries", {"serve"}),
            ("workers", {"table1"}),
            ("racks", {"serve", "trace", "metrics"}),
            ("protocol", {"trace", "metrics"}),
            ("output", {"trace", "metrics"}),
            ("subcommand", {"trace", "metrics"}),
        ],
    )
    def test_help_names_every_reader(self, dest, readers):
        actions = _actions_by_dest()
        prefix, _, _ = actions[dest].help.partition(":")
        named = set(prefix.split("/"))
        assert named == readers
        assert named <= set(actions["command"].choices)


class TestRackTree:
    """``--racks N`` builds N racks of N leaves (``serve``, ``trace``,
    ``metrics``); the test helper builds the same tree."""

    @pytest.mark.parametrize("racks", [2, 3, 4, 8])
    def test_shape_and_bandwidths(self, racks):
        from tests.obs.shuffle import rack_tree

        tree = _rack_tree(racks)
        assert tree.name == f"fat-tree({racks}x{racks})"
        assert tree.num_compute_nodes == racks * racks
        bandwidths = sorted(up for _, up, _ in tree.iter_links())
        assert bandwidths == [2.0] * racks * racks + [4.0] * racks
        assert tree.fingerprint == rack_tree(racks).fingerprint


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
