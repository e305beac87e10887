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

    def test_figure5_subset(self, capsys):
        code = main(["figure5", "--benchmarks", "crc", *FAST])
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 5(a)" in captured.out
        # stdout carries the data; a clean grid leaves stderr empty
        assert captured.err == ""


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
