"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = ["--eval-instructions", "30000", "--profile-instructions", "12000"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_requires_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])

    def test_simulate_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--benchmark", "nope"])

    def test_replay_flags_only_on_commands_that_replay(self):
        """inspect and choose-wpa never replay a trace, so they reject
        the replay flags at parse time instead of ignoring them."""
        for command in (
            ["inspect", "--benchmark", "crc"],
            ["choose-wpa", "--benchmark", "crc"],
        ):
            build_parser().parse_args(command + FAST + ["--cache-dir", "off"])
            for flag in (["--engine", "fast"], ["--strict"], ["--sanitize"]):
                with pytest.raises(SystemExit) as exit_info:
                    build_parser().parse_args(command + flag)
                assert exit_info.value.code == 2, (command, flag)

    @pytest.mark.parametrize(
        "command",
        [
            ["figure4"],
            ["figure5"],
            ["figure6"],
            ["simulate", "--benchmark", "crc"],
            ["report"],
            ["export", "--figure", "4"],
            ["verify", "crc"],
        ],
        ids=lambda command: command[0],
    )
    def test_strict_flag_is_gone(self, command, capsys):
        """Programs run the P rules when built and ``verify`` runs every
        rule; no command re-runs the catalog before replaying."""
        build_parser().parse_args(command)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--strict"])
        assert exit_info.value.code == 2
        assert "--strict" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "3"])
    @pytest.mark.parametrize(
        "command",
        [["choose-wpa", "--benchmark", "crc"], ["verify", "crc"]],
        ids=["choose-wpa", "verify"],
    )
    def test_page_kb_must_be_a_power_of_two(self, command, value, capsys):
        """A bad page size is a usage error, not a traceback from the
        address arithmetic."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--page-kb", value])
        assert exit_info.value.code == 2
        assert "--page-kb" in capsys.readouterr().err

    @pytest.mark.parametrize("figure", ["figure4", "figure5", "figure6"])
    def test_figures_take_no_layout_flag(self, figure, capsys):
        """Every figure replays the paper's layout pairing."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([figure, "--layout", "way-placement"])
        assert exit_info.value.code == 2
        assert "--layout" in capsys.readouterr().err


class TestCommands:
    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "crc" in out and "tiff2rgba" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "32KB, 32-Way, 32B Block" in out

    def test_simulate_way_placement(self, capsys):
        assert main(["simulate", "--benchmark", "crc", *FAST]) == 0
        out = capsys.readouterr().out
        assert "normalised I-cache energy" in out
        assert "single-way checks" in out

    def test_simulate_other_scheme_and_geometry(self, capsys):
        code = main(
            [
                "simulate",
                "--benchmark",
                "sha",
                "--scheme",
                "way-memoization",
                "--cache-kb",
                "16",
                "--ways",
                "8",
                *FAST,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "16KB, 8-way" in out

    def test_simulate_layout_override(self, capsys):
        code = main(
            [
                "simulate",
                "--benchmark",
                "crc",
                "--layout",
                "original",
                *FAST,
            ]
        )
        assert code == 0
        assert "original order" in capsys.readouterr().out

    def test_inspect(self, capsys):
        assert main(["inspect", "--benchmark", "crc", *FAST]) == 0
        out = capsys.readouterr().out
        assert "heaviest chains" in out

    def test_choose_wpa(self, capsys):
        assert main(["choose-wpa", "--benchmark", "crc", *FAST]) == 0
        out = capsys.readouterr().out
        assert "chosen WPA size" in out
        assert "candidate ranking" in out

    def test_figure4_subset(self, capsys):
        code = main(["figure4", "--benchmarks", "crc", "sha", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4(a)" in out and "average" in out

    def test_figure_unknown_benchmark_fails_cleanly(self, capsys):
        code = main(["figure4", "--benchmarks", "nope", *FAST])
        assert code == 1
        assert "unknown benchmarks" in capsys.readouterr().err

    def test_figure_zero_budget_fails_before_the_grid(self, capsys):
        code = main(["figure4", "--benchmarks", "crc", "--eval-instructions", "0"])
        assert code == 1
        # one error line, and no [cell] incidents from a grid that ran
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: eval_instructions must be positive, got 0"]

    def test_figure5_subset(self, capsys):
        code = main(["figure5", "--benchmarks", "crc", *FAST])
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 5(a)" in captured.out
        # stdout carries the data; a clean grid leaves stderr empty
        assert captured.err == ""

    def test_cache_stats_reports_a_populated_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["simulate", "--benchmark", "crc", "--cache-dir", cache, *FAST]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", cache]) == 0
        out = capsys.readouterr().out
        [entries] = [line for line in out.splitlines() if line.startswith("entries")]
        assert int(entries.split(":")[1]) > 0
        assert any(line.startswith("size ") for line in out.splitlines())
        # A fresh store counts no hits or misses, so it prints none.
        assert "session" not in out


class TestReportAndExport:
    def test_export_figure4_csv(self, capsys):
        code = main(
            ["export", "--figure", "4", "--benchmarks", "crc", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "benchmark,scheme" in out or "figure,benchmark" in out

    def test_export_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "fig5.json"
        code = main(
            [
                "export",
                "--figure",
                "5",
                "--format",
                "json",
                "--output",
                str(target),
                "--benchmarks",
                "crc",
                *FAST,
            ]
        )
        assert code == 0
        assert target.exists()
        import json

        assert isinstance(json.loads(target.read_text()), list)

    def test_report_to_file(self, tmp_path):
        target = tmp_path / "report.md"
        code = main(
            ["report", "--output", str(target), "--benchmarks", "crc", "sha", *FAST]
        )
        assert code == 0
        text = target.read_text()
        assert "Paper checklist" in text
