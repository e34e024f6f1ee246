"""Tests for the command-line front end."""

import json

import pytest

from repro.bench.cli import build_parser, list_figures, main, run


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.figure is None
        assert args.scale == 1.0
        assert args.seed is None

    def test_figure_and_options(self):
        args = build_parser().parse_args(["fig5_epsilon", "--scale", "2.5", "--seed", "9"])
        assert args.figure == "fig5_epsilon"
        assert args.scale == 2.5
        assert args.seed == 9


class TestListing:
    def test_list_mentions_every_figure_key(self):
        listing = list_figures()
        for key in ("fig5_epsilon", "fig8_throughput", "table1", "cost_model"):
            assert key in listing

    def test_main_without_figure_lists_and_succeeds(self, capsys):
        assert main([]) == 0
        assert "fig5_epsilon" in capsys.readouterr().out

    def test_main_with_list_flag(self, capsys):
        assert main(["--list"]) == 0
        assert "available experiments" in capsys.readouterr().out


class TestRunning:
    def test_run_table1_produces_report(self):
        report = run("table1", scale=1.0, seed=None)
        assert "Table 1" in report
        assert "epsilon" in report

    def test_main_runs_and_prints(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["table1", "--output", str(target)]) == 0
        capsys.readouterr()
        assert "Table 1" in target.read_text()

    def test_unknown_figure_returns_error_code(self, capsys):
        assert main(["fig99_unknown"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_non_positive_scale_returns_error_code(self, capsys):
        assert main(["fig8_throughput", "--scale", "0"]) == 2
        assert "scale must be positive" in capsys.readouterr().err

    def test_json_output_writes_the_figure_table(self, tmp_path, capsys):
        target = tmp_path / "figures.json"
        assert main(["table1", "--output", str(target)]) == 0
        capsys.readouterr()
        document = json.loads(target.read_text())
        assert (document["scale"], document["seed"]) == (1.0, 1)
        assert document["figures"]["table1"][0]["x_value"] == "epsilon"

    def test_report_dir_writes_one_file_per_figure(self, tmp_path, capsys):
        directory = tmp_path / "reports" / "nested"
        assert main(["table1", "--report-dir", str(directory)]) == 0
        capsys.readouterr()
        report = directory / "table1.txt"
        assert report.exists()
        assert "Table 1" in report.read_text()

    def test_shard_scaling_is_registered(self):
        listing = list_figures()
        assert "shard_scaling" in listing
