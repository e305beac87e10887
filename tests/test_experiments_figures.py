"""Tests for the figure harness (on a reduced benchmark subset for speed)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.figures import figure4, figure5, figure6
from repro.experiments.runner import ExperimentRunner
from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule

SUBSET = ["crc", "sha", "susan_c"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(eval_instructions=40_000, profile_instructions=15_000)


class TestFigure4:
    def test_structure(self, runner):
        result = figure4(runner, benchmarks=SUBSET)
        assert result.benchmarks == tuple(SUBSET)
        assert set(result.memoization) == set(SUBSET)
        assert set(result.placement) == set(SUBSET)

    def test_placement_beats_memoization(self, runner):
        result = figure4(runner, benchmarks=SUBSET)
        assert result.mean_placement_energy < result.mean_memoization_energy
        assert result.mean_placement_ed <= result.mean_memoization_ed + 1e-9

    def test_render_contains_benchmarks_and_average(self, runner):
        text = figure4(runner, benchmarks=SUBSET).render()
        assert "Figure 4(a)" in text and "Figure 4(b)" in text
        for bench in SUBSET:
            assert bench in text
        assert "average" in text

    def test_empty_suite_rejected(self, runner):
        with pytest.raises(ExperimentError):
            figure4(runner, benchmarks=[])


class TestFigure5:
    def test_monotone_degradation(self, runner):
        sizes = [32 * 1024, 8 * 1024, 1 * 1024]
        result = figure5(runner, wpa_sizes=sizes, benchmarks=SUBSET)
        energies = [result.placement_energy[s] for s in sizes]
        # smaller WPA never *helps* I-cache energy
        assert energies[0] <= energies[1] + 0.01 <= energies[2] + 0.02

    def test_always_beats_memoization(self, runner):
        result = figure5(
            runner, wpa_sizes=[32 * 1024, 1 * 1024], benchmarks=SUBSET
        )
        for energy in result.placement_energy.values():
            assert energy < result.memoization_energy

    def test_render(self, runner):
        text = figure5(
            runner, wpa_sizes=[32 * 1024, 1024], benchmarks=SUBSET
        ).render()
        assert "32KB" in text and "1KB" in text and "way-memo" in text

    def test_empty_suite_rejected(self, runner):
        with pytest.raises(ExperimentError):
            figure5(runner, benchmarks=[])


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return figure6(
            runner,
            cache_sizes=[16 * 1024, 32 * 1024],
            ways_list=[8, 32],
            wpa_sizes=[8 * 1024],
            benchmarks=SUBSET,
        )

    def test_grid_complete(self, result):
        assert set(result.cells) == {
            (16 * 1024, 8),
            (16 * 1024, 32),
            (32 * 1024, 8),
            (32 * 1024, 32),
        }

    def test_savings_grow_with_associativity(self, result):
        for size in (16 * 1024, 32 * 1024):
            low = result.cell(size, 8).placement_energy[8 * 1024]
            high = result.cell(size, 32).placement_energy[8 * 1024]
            assert high < low

    def test_memoization_hurts_at_low_associativity(self, result):
        assert result.cell(16 * 1024, 8).memoization_energy > 1.0

    def test_best_ed_found(self, result):
        (size, ways), wpa, value = result.best_ed()
        assert (size, ways) in result.cells
        assert value == result.cell(size, ways).placement_ed[wpa]

    def test_missing_cell_raises(self, result):
        with pytest.raises(ExperimentError):
            result.cell(64 * 1024, 32)

    def test_render(self, result):
        text = result.render()
        assert "Figure 6(a)" in text and "Figure 6(b)" in text

    def test_empty_suite_rejected(self, runner):
        with pytest.raises(ExperimentError):
            figure6(runner, benchmarks=[])


class TestSupervisedSerialGrid:
    """At the default ``jobs=1`` a figure still runs under the supervisor."""

    @staticmethod
    def make_runner():
        return ExperimentRunner(
            eval_instructions=8_000, profile_instructions=4_000, cache_dir="off"
        )

    def test_kernel_sanitizer_trip_recovers_bit_identically(self):
        want = figure4(self.make_runner(), benchmarks=["crc", "sha"])
        runner = self.make_runner()
        rule = ChaosRule("kernel", "sanitizer", match="way-placement", times=1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            got = figure4(runner, benchmarks=["crc", "sha"])
        assert got == want
        [incident] = runner.last_failures
        assert incident.recovered and incident.recovery == "engine-fallback"
