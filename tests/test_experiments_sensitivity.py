"""Tests for the energy-model sensitivity analysis."""

import pytest

from repro.energy.params import EnergyParams
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sensitivity import reprice_report, sensitivity_grid

SUBSET = ["crc", "susan_c"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(eval_instructions=40_000, profile_instructions=15_000)


class TestReprice:
    def test_identity_parameters_reproduce_energy(self, runner):
        report = runner.report("crc", "baseline")
        repriced = reprice_report(report, runner.energy_params)
        assert repriced.icache_pj == pytest.approx(report.icache_energy_pj)
        assert repriced.cycles == report.cycles

    def test_scaled_tag_energy_scales_tag_component(self, runner):
        from dataclasses import replace

        report = runner.report("crc", "baseline")
        params = runner.energy_params
        doubled = replace(params, cam_pj_per_way_bit=2 * params.cam_pj_per_way_bit)
        repriced = reprice_report(report, doubled)
        assert repriced.breakdown.tag_pj == pytest.approx(
            2 * report.breakdown.tag_pj
        )
        assert repriced.breakdown.data_pj == pytest.approx(report.breakdown.data_pj)

    def test_memo_scheme_keeps_link_overhead(self, runner):
        report = runner.report("crc", "way-memoization")
        repriced = reprice_report(report, runner.energy_params)
        assert repriced.icache_pj == pytest.approx(report.icache_energy_pj)


class TestGrid:
    def test_grid_shape(self, runner):
        result = sensitivity_grid(
            runner, cam_scales=[0.8, 1.0], data_scales=[1.0, 1.2],
            benchmarks=SUBSET,
        )
        assert len(result.points) == 4
        assert result.point(1.0, 1.0).placement_energy < 1.0

    def test_calibration_point_matches_runner(self, runner):
        result = sensitivity_grid(
            runner, cam_scales=[1.0], data_scales=[1.0], benchmarks=SUBSET
        )
        point = result.point(1.0, 1.0)
        direct = [
            runner.normalised(b, "way-placement", wpa_size=32 * 1024).icache_energy
            for b in SUBSET
        ]
        assert point.placement_energy == pytest.approx(sum(direct) / len(direct))

    def test_ram_calibration_point_matches_runner(self):
        # Repricing keeps the runner's organisation: a RAM runner's
        # identity point is its own suite means, not a CAM repricing.
        ram = ExperimentRunner(
            organisation="ram", eval_instructions=20_000, profile_instructions=8_000
        )
        benchmarks = ["crc", "sha"]
        point = sensitivity_grid(
            ram, cam_scales=[1.0], data_scales=[1.0], benchmarks=benchmarks
        ).point(1.0, 1.0)

        def suite_mean(scheme, wpa_size=0):
            values = [
                ram.normalised(b, scheme, wpa_size=wpa_size).icache_energy
                for b in benchmarks
            ]
            return sum(values) / len(values)

        assert point.placement_energy == pytest.approx(
            suite_mean("way-placement", wpa_size=32 * 1024)
        )
        assert point.memoization_energy == pytest.approx(
            suite_mean("way-memoization")
        )

    def test_more_tag_energy_means_more_saving(self, runner):
        result = sensitivity_grid(
            runner, cam_scales=[0.7, 1.4], data_scales=[1.0], benchmarks=SUBSET
        )
        assert (
            result.point(1.4, 1.0).placement_energy
            < result.point(0.7, 1.0).placement_energy
        )

    def test_conclusion_robust_around_calibration(self, runner):
        result = sensitivity_grid(runner, benchmarks=SUBSET)
        assert result.conclusion_robust

    def test_missing_point_raises(self, runner):
        result = sensitivity_grid(
            runner, cam_scales=[1.0], data_scales=[1.0], benchmarks=SUBSET
        )
        with pytest.raises(ExperimentError):
            result.point(9.0, 9.0)

    def test_empty_suite_rejected(self, runner):
        with pytest.raises(ExperimentError):
            sensitivity_grid(runner, benchmarks=[])
