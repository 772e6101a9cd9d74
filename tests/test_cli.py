"""Tests for the CLI: the run / evaluate pair and the engine subcommands."""

import os
import re

import numpy as np
import pytest

from repro import cli


def _argv(command):
    """The shortest valid argv for a top-level command."""
    return [command, "--data", "x.json"] if command in ("run", "evaluate") else [command]


class TestParser:
    def test_all_commands_accepted(self):
        parser = cli.build_parser()
        for command in cli.COMMANDS:
            args = parser.parse_args(_argv(command))
            assert args.command == command

    def test_unknown_command_rejected(self):
        # The nine per-figure commands and their two selectors are gone:
        # one run step, one evaluate step.
        parser = cli.build_parser()
        for argv in (
            ["fig99"], ["fig4"], ["table1"], ["all"], ["run"], ["evaluate"],
            ["run", "--data", "x.json", "--scale", "0.5"],
            ["run", "--data", "x.json", "--dataset", "insect"],
            ["evaluate", "--data", "x.json", "--queries", "3"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_lint_is_no_longer_a_command(self, capsys):
        # The project invariants run as tier-1 tests
        # (tests/test_invariants.py), not as a shipped subcommand.
        with pytest.raises(SystemExit) as info:
            cli.main(["lint"])
        assert info.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    def test_defaults(self):
        from repro.bench import experiments as exp

        args = cli.build_parser().parse_args(_argv("run"))
        assert args.queries == exp.DEFAULT_QUERY_COUNT
        assert args.seed == 1234
        assert {
            "insect": args.scale_insect, "eeg": args.scale_eeg
        } == exp.DEFAULT_SCALES
        assert cli.build_parser().parse_args(_argv("evaluate")).output == "-"

    def test_per_dataset_scales(self):
        args = cli.build_parser().parse_args(
            _argv("run") + ["--scale-insect", "0.3", "--scale-eeg", "0.02"]
        )
        assert (args.scale_insect, args.scale_eeg) == (0.3, 0.02)


class TestExecution:
    """``run`` then ``evaluate`` at smoke scale (the ``smoke_run``
    fixture is the ``run`` half, through ``cli.main``)."""

    @pytest.fixture(scope="class")
    def rendered(self, smoke_run):
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(["evaluate", "--data", str(smoke_run[0])]) == 0
        return buffer.getvalue()

    def test_table1_output(self, rendered):
        assert "| insect | 64436 |" in rendered
        assert "1801999" in rendered

    def test_table2_output(self, rendered):
        assert "number m of segments" in rendered

    def test_fig4_small_run(self, rendered, smoke_run):
        assert smoke_run[1]["kind"] == "experiments"
        assert "### fig4 / insect" in rendered
        assert "tsindex (ms)" in rendered
        assert "Shape checks" in rendered

    def test_fig8_small_run(self, rendered):
        assert "### fig8 / eeg" in rendered
        assert "memory_mb" in rendered

    def test_intro_small_run(self, rendered):
        assert "| euclidean_results |" in rendered

    def test_evaluate_exits_nonzero_on_a_failed_robust_claim(
        self, smoke_run, tmp_path, capsys
    ):
        import copy
        import json

        payload = copy.deepcopy(smoke_run[1])
        payload["datasets"]["eeg"]["intro"]["missed_twins"] = 1
        data = tmp_path / "broken.json"
        data.write_text(json.dumps(payload))
        output = tmp_path / "broken.md"
        assert cli.main(["evaluate", "--data", str(data), "--output", str(output)]) == 1
        assert "eeg/intro/no_missed_twins" in capsys.readouterr().err
        assert "no_missed_twins: FAIL" in output.read_text()

    def test_evaluate_rejects_what_run_did_not_write(self, tmp_path):
        foreign = tmp_path / "scaling.json"
        foreign.write_text('{"schema": "repro.bench/1", "kind": "scaling"}')
        for path in (foreign, tmp_path / "missing.json"):
            with pytest.raises(SystemExit, match="error: "):
                cli.main(["evaluate", "--data", str(path)])


class TestEngineCLI:
    def test_engine_parser_subcommands(self):
        parser = cli.build_engine_parser()
        args = parser.parse_args(
            ["build", "--output", "x.rts", "--shards", "4"]
        )
        assert args.engine_command == "build"
        assert args.shards == 4
        args = parser.parse_args(
            ["query", "--index", "x.rts", "--position", "5", "--epsilon", "0.5"]
        )
        assert args.engine_command == "query"
        with pytest.raises(SystemExit):
            parser.parse_args(["frobnicate"])

    def test_engine_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_engine_parser().parse_args([])

    @pytest.fixture(scope="class")
    def built_archive(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("engine") / "idx.rts"
        code = cli.main(
            [
                "engine", "build", "--output", str(path),
                "--dataset", "insect", "--scale", "0.02",
                "--length", "50", "--shards", "3",
            ]
        )
        assert code == 0
        return path

    def test_engine_build_output(self, built_archive, capsys):
        assert built_archive.is_dir()

    def test_engine_build_writes_exactly_the_path_given(self, tmp_path, capsys):
        """A suffix-less ``--output`` is the path ``--index`` takes
        (numpy used to append ``.npz`` behind "saved to idx"). Serial
        and process output agree but for ``nodes_visited``: the serial
        query walks the shards' forest, whose synthetic root is one more
        visited node than the shards the process workers walk."""
        path = tmp_path / "idx"
        build = [
            "engine", "build", "--output", str(path), "--dataset", "insect",
            "--scale", "0.01", "--length", "50", "--shards", "2",
        ]
        assert cli.main(build) == 0
        assert f"saved to {path}" in capsys.readouterr().out
        assert os.listdir(tmp_path) == ["idx"]
        query = ["engine", "query", "--index", str(path), "--position", "5",
                 "--epsilon", "0.5"]
        assert cli.main(query) == 0
        serial = capsys.readouterr().out
        assert cli.main(query + ["--executor", "process"]) == 0
        pooled = re.sub(
            r"nodes_visited=(\d+)",
            lambda visited: f"nodes_visited={int(visited[1]) + 1}",
            capsys.readouterr().out,
        )
        assert "stats:" in serial and pooled == serial

    def test_engine_build_over_a_file_is_a_clean_error(self, tmp_path):
        """Last week's single-file archive in the way: a one-line typed
        error, not a bare ``FileExistsError`` traceback — and the file
        is left alone."""
        path = tmp_path / "idx.npz"
        path.write_bytes(b"an older archive")
        with pytest.raises(SystemExit, match="error: cannot write archive"):
            cli.main([
                "engine", "build", "--output", str(path), "--dataset", "insect",
                "--scale", "0.01", "--length", "50", "--shards", "2",
            ])
        assert path.read_bytes() == b"an older archive"

    def test_query_arguments_are_declared_once_for_both_planes(self):
        given = [
            "--position", "5", "--knn", "3", "--query-length", "20",
            "--limit", "4", "--executor", "process",
        ]
        engine = cli.build_engine_parser().parse_args(
            ["query", "--index", "idx.rts"] + given
        )
        live = cli.build_live_parser().parse_args(
            ["query", "--path", "traffic"] + given
        )
        shared = ("position", "query_file", "epsilon", "knn", "query_length",
                  "limit", "executor")
        assert [getattr(engine, n) for n in shared] == [getattr(live, n) for n in shared]
        assert [getattr(engine, n) for n in shared] == [5, None, None, 3, 20, 4, "process"]

    def test_engine_query_epsilon(self, built_archive, capsys):
        code = cli.main(
            [
                "engine", "query", "--index", str(built_archive),
                "--position", "250", "--epsilon", "0.5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "twins within epsilon" in output
        assert "250" in output
        assert "candidates=" in output

    def test_engine_query_knn(self, built_archive, capsys):
        code = cli.main(
            [
                "engine", "query", "--index", str(built_archive),
                "--position", "250", "--knn", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "3 nearest windows" in output

    def test_engine_query_requires_exactly_one_mode(self, built_archive):
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "engine", "query", "--index", str(built_archive),
                    "--position", "250",
                ]
            )
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "engine", "query", "--index", str(built_archive),
                    "--position", "250", "--epsilon", "0.5", "--knn", "3",
                ]
            )

    def test_engine_query_from_file_raw_domain(self, built_archive, tmp_path, capsys):
        """File queries are raw values even against a GLOBAL index."""
        from repro.persistence import load_index

        engine = load_index(built_archive)
        assert engine.source.normalization.value == "global"
        raw_window = engine.source.series.values[100:150]
        query_path = tmp_path / "query.csv"
        np.savetxt(query_path, np.asarray(raw_window))
        code = cli.main(
            [
                "engine", "query", "--index", str(built_archive),
                "--query-file", str(query_path), "--epsilon", "0.25",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "0 twins" not in output
        assert "100" in output

    def test_engine_query_variable_length(self, built_archive, capsys):
        """Any m <= l serves: --query-length truncates the query to a
        prefix and the pipeline dispatches it to the varlength kernels."""
        code = cli.main(
            [
                "engine", "query", "--index", str(built_archive),
                "--position", "250", "--epsilon", "0.0",
                "--query-length", "20",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "twins within epsilon" in output
        assert "250" in output

    def test_engine_query_length_bounds_checked(self, built_archive):
        with pytest.raises(SystemExit, match="query-length"):
            cli.main(
                [
                    "engine", "query", "--index", str(built_archive),
                    "--position", "250", "--epsilon", "0.5",
                    "--query-length", "0",
                ]
            )
        with pytest.raises(SystemExit, match="query-length"):
            cli.main(
                [
                    "engine", "query", "--index", str(built_archive),
                    "--position", "250", "--epsilon", "0.5",
                    "--query-length", "51",
                ]
            )

    def test_engine_stats(self, built_archive, capsys):
        code = cli.main(["engine", "stats", "--index", str(built_archive)])
        assert code == 0
        output = capsys.readouterr().out
        assert "ShardedTSIndex" in output
        assert "span" in output

    def test_engine_stats_rejects_monolithic_archive(self, tmp_path, capsys):
        from repro.core.tsindex import TSIndex
        from repro.persistence import save_index

        series = np.cumsum(np.random.default_rng(0).normal(size=500))
        save_index(
            TSIndex.build(series, 50, normalization="none"),
            tmp_path / "mono.rts",
        )
        with pytest.raises(SystemExit, match="not a sharded engine"):
            cli.main(["engine", "stats", "--index", str(tmp_path / "mono.rts")])
