"""Unit tests for the experiment runner's caching pipeline."""

import dataclasses

import pytest

from repro.engine.grid import GridCell
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.sim.machine import XSCALE_BASELINE


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(eval_instructions=40_000, profile_instructions=15_000)


class TestCaching:
    def test_workload_cached(self, runner):
        assert runner.workload("crc") is runner.workload("crc")

    def test_profile_cached(self, runner):
        assert runner.profile("crc") is runner.profile("crc")

    def test_block_trace_cached(self, runner):
        assert runner.block_trace("crc") is runner.block_trace("crc")

    def test_events_keyed_by_layout(self, runner):
        original = runner.events("crc", LayoutPolicy.ORIGINAL, 32)
        placed = runner.events("crc", LayoutPolicy.WAY_PLACEMENT, 32)
        assert original is not placed
        assert original.num_fetches == placed.num_fetches

    def test_report_cached_by_configuration(self, runner):
        a = runner.report("crc", "baseline")
        b = runner.report("crc", "baseline")
        assert a is b
        c = runner.report("crc", "baseline", XSCALE_BASELINE.with_icache(16 * 1024, 8))
        assert c is not a


class TestCellIdentity:
    """The normalised grid cell is the memo key and the one cell identity."""

    def test_memo_key_covers_the_whole_machine(self):
        slow_memory = dataclasses.replace(XSCALE_BASELINE, memory_latency_cycles=100)

        def fresh():
            return ExperimentRunner(
                eval_instructions=20_000, profile_instructions=8_000, cache_dir="off"
            )

        runner = fresh()
        fast = runner.report("crc", "baseline")
        slow = runner.report("crc", "baseline", slow_memory)
        assert slow == fresh().report("crc", "baseline", slow_memory)
        assert slow.cycles > fast.cycles

    def test_key_distinguishes_every_cell_axis(self):
        base = GridCell("crc", "baseline")
        variants = [
            GridCell("sha", "baseline"),
            GridCell("crc", "way-placement"),
            GridCell("crc", "baseline", wpa_size=8 * 1024),
            GridCell("crc", "baseline", same_line_skip=False),
            GridCell("crc", "baseline", XSCALE_BASELINE.with_icache(16 * 1024, 16)),
            GridCell("crc", "baseline", dataclasses.replace(XSCALE_BASELINE, page_size=2048)),
            GridCell(
                "crc",
                "baseline",
                dataclasses.replace(XSCALE_BASELINE, memory_latency_cycles=100),
            ),
        ]
        keys = {cell.key for cell in variants}
        assert base.key not in keys
        assert len(keys) == len(variants)

    def test_l0_size_only_shapes_the_filter_cache(self):
        assert GridCell("crc", "baseline", l0_size=256) == GridCell("crc", "baseline")
        assert GridCell("crc", "baseline", l0_size=256).key == GridCell("crc", "baseline").key
        small, large = (GridCell("crc", "filter-cache", l0_size=size) for size in (256, 512))
        assert small != large and small.key != large.key


class TestDefaults:
    def test_way_placement_uses_chained_layout(self, runner):
        report = runner.report("crc", "way-placement", wpa_size=32 * 1024)
        assert "way-placement" in report.layout_description

    def test_baseline_uses_original_layout(self, runner):
        report = runner.report("crc", "baseline")
        assert "original" in report.layout_description

    def test_layout_override(self, runner):
        report = runner.report(
            "crc",
            "way-placement",
            wpa_size=32 * 1024,
            layout_policy=LayoutPolicy.ORIGINAL,
        )
        assert "original" in report.layout_description

    def test_profile_uses_small_input(self, runner):
        assert runner.profile("crc").input_name == "small"

    def test_mem_fraction_within_range(self, runner):
        fraction = runner.mem_fraction("crc")
        assert 0.0 <= fraction <= 0.2  # crc is register resident


class TestNormalised:
    def test_baseline_normalises_to_one(self, runner):
        result = runner.normalised("crc", "baseline")
        assert result.icache_energy == pytest.approx(1.0)
        assert result.ed_product == pytest.approx(1.0)

    def test_way_placement_beats_baseline(self, runner):
        result = runner.normalised("crc", "way-placement", wpa_size=32 * 1024)
        assert result.icache_energy < 0.65
        assert result.ed_product < 1.0

    def test_environment_override_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_INSTRUCTIONS", "not-a-number")
        with pytest.raises(ExperimentError):
            ExperimentRunner()

    @pytest.mark.parametrize("value", [0, -5])
    @pytest.mark.parametrize("budget", ["eval_instructions", "profile_instructions"])
    def test_explicit_budget_validation(self, budget, value):
        with pytest.raises(ExperimentError, match=f"{budget} must be positive"):
            ExperimentRunner(**{budget: value})

    def test_environment_override_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_INSTRUCTIONS", "12345")
        assert ExperimentRunner().eval_instructions == 12345
