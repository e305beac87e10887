"""Tests for figure-data export and the reproduction report."""

import csv
import dataclasses
import io
import json

import pytest

from repro.engine.grid import GridCell
from repro.errors import CellFailure, ExperimentError
from repro.experiments.export import (
    figure4_records,
    figure5_records,
    figure6_records,
    records_to_csv,
    records_to_json,
)
from repro.experiments.figures import figure4, figure5, figure6
from repro.experiments.report import paper_checklist, reproduction_report
from repro.experiments.runner import ExperimentRunner
from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule
from repro.resilience.journal import cell_content_key
from repro.resilience.policy import ResilienceConfig
from repro.sim.machine import XSCALE_BASELINE

SUBSET = ["crc", "sha"]
#: Distinct cells of one benchmark across Figures 4-6: Figure 5's eight
#: (baseline, way-memoization, six WPA sizes) hold Figure 4's three, and
#: Figure 6's 36 (nine geometries x four) share four with Figure 5.
REPORT_CELLS_PER_BENCHMARK = 8 + 36 - 4


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(eval_instructions=40_000, profile_instructions=15_000)


@pytest.fixture(scope="module")
def fig4(runner):
    return figure4(runner, benchmarks=SUBSET)


@pytest.fixture(scope="module")
def fig5(runner):
    return figure5(runner, wpa_sizes=[32 * 1024, 1024], benchmarks=SUBSET)


@pytest.fixture(scope="module")
def fig6(runner):
    return figure6(
        runner,
        cache_sizes=[16 * 1024, 32 * 1024],
        ways_list=[8, 32],
        wpa_sizes=[8 * 1024],
        benchmarks=SUBSET,
    )


class TestRecords:
    def test_figure4_one_record_per_bar(self, fig4):
        records = figure4_records(fig4)
        assert len(records) == 2 * len(SUBSET)
        schemes = {r["scheme"] for r in records}
        assert schemes == {"way-memoization", "way-placement"}

    def test_figure5_records_cover_sizes(self, fig5):
        records = figure5_records(fig5)
        wpa_values = [r["wpa_kb"] for r in records if r["scheme"] == "way-placement"]
        assert wpa_values == [32, 1]
        assert records[-1]["scheme"] == "way-memoization"

    def test_figure6_records_cover_grid(self, fig6):
        records = figure6_records(fig6)
        # 4 cells x (1 memo + 1 wpa) records
        assert len(records) == 4 * 2
        assert {r["cache_kb"] for r in records} == {16, 32}

    def test_energy_values_match_result(self, fig4):
        records = figure4_records(fig4)
        for record in records:
            if record["scheme"] == "way-placement":
                expected = fig4.placement[record["benchmark"]].icache_energy
                assert record["icache_energy"] == pytest.approx(expected, abs=1e-5)


class TestSerialisation:
    def test_csv_parses_back(self, fig4):
        text = records_to_csv(figure4_records(fig4))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2 * len(SUBSET)
        assert float(rows[0]["icache_energy"]) > 0

    def test_json_parses_back(self, fig5):
        text = records_to_json(figure5_records(fig5))
        data = json.loads(text)
        assert isinstance(data, list) and data

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            records_to_csv([])
        with pytest.raises(ExperimentError):
            records_to_json([])


class TestReport:
    def test_checklist_structure(self, fig4, fig5, fig6):
        items = paper_checklist(fig4, fig5, fig6)
        assert len(items) >= 8
        for item in items:
            assert item.claim and item.measured
            assert isinstance(item.passed, bool)

    def test_paper_checklist_passes_on_the_full_suite(self, paper_grid):
        # Every paper claim, measured on all 23 benchmarks at a budget
        # small enough for tier 1.
        fig4, fig5, fig6 = paper_grid.figures
        assert len(fig4.benchmarks) == 23
        failing = [
            f"{item.claim}: {item.measured}"
            for item in paper_checklist(fig4, fig5, fig6)
            if not item.passed
        ]
        assert not failing, failing

    def test_report_renders(self, runner):
        text = reproduction_report(runner, benchmarks=SUBSET)
        assert "# Way-Placement Reproduction Report" in text
        assert "Paper checklist" in text
        assert "Figure 4" in text and "Figure 5" in text and "Figure 6" in text
        # the tiny-kernel subset reproduces the headline claims
        assert "| Figure 4: way-placement energy savings approach 50% |" in text

    def test_report_runs_one_grid(self, runner, monkeypatch):
        calls = []
        run_grid = runner.run_grid

        def spy(cells, **kwargs):
            calls.append(len(cells))
            return run_grid(cells, **kwargs)

        monkeypatch.setattr(runner, "run_grid", spy)
        reproduction_report(runner, benchmarks=SUBSET)
        total = REPORT_CELLS_PER_BENCHMARK * len(SUBSET)
        assert calls == [total]
        assert runner.last_grid.total == total

    def test_interrupted_serial_report_resumes(self, tmp_path):
        def make_runner(cache_dir, resilience=None):
            return ExperimentRunner(
                eval_instructions=8_000,
                profile_instructions=4_000,
                cache_dir=cache_dir,
                resilience=resilience,
            )

        fail_fast = ResilienceConfig()
        first = make_runner(tmp_path, fail_fast)
        # Two firings: the first sha way-memoization cell fails on both
        # engines, so exactly one cell fails.
        rule = ChaosRule("cell", "raise", match="sha:way-memoization", times=2)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(CellFailure):
                reproduction_report(first, benchmarks=SUBSET)
        [failed] = first.last_grid.failed

        resumed = make_runner(tmp_path, dataclasses.replace(fail_fast, resume=True))
        text = reproduction_report(resumed, benchmarks=SUBSET)
        summary = resumed.last_grid
        assert summary.executed == (failed,)
        assert len(summary.resumed) == summary.total - 1
        journaled = {
            "figure 4": GridCell("crc", "way-placement", wpa_size=32 * 1024),
            "figure 5": GridCell("crc", "way-placement", wpa_size=1024),
            "figure 6": GridCell(
                "crc", "way-memoization", XSCALE_BASELINE.with_icache(16 * 1024, 8)
            ),
        }
        for figure, cell in journaled.items():
            assert cell_content_key(cell) in summary.resumed, figure
        assert text == reproduction_report(make_runner("off"), benchmarks=SUBSET)
