"""Energy-model sensitivity analysis: is the conclusion calibration-proof?

The reproduction's energy constants are calibrated, not measured
(DESIGN.md §2), so the right question is not "are the constants right?" but
"does the paper's conclusion survive perturbing them?".  Because schemes
record raw *activity counters*, energy is a pure function of (counters,
parameters): this module re-prices already-simulated runs under scaled
parameters without touching the simulator — a full grid over the suite
costs milliseconds.

``sensitivity_grid`` scales the two ratios that drive everything (CAM tag
energy and data-read energy) and reports, per grid point, the suite-mean
normalised I-cache energy of way-placement and way-memoization.  The bench
asserts the ordering  way-placement < way-memoization < baseline  holds
across a wide region around the calibration point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.energy.cache_model import CacheEnergyModel
from repro.energy.params import EnergyParams
from repro.energy.processor import ProcessorReport
from repro.errors import ExperimentError
from repro.experiments.figures import suite_cells
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.sim.machine import MachineConfig, XSCALE_BASELINE
from repro.sim.report import SimulationReport
from repro.utils.stats import arithmetic_mean
from repro.workloads.mibench import benchmark_names

__all__ = ["SensitivityPoint", "SensitivityResult", "reprice_report", "sensitivity_grid"]


def reprice_report(
    report: SimulationReport,
    params: EnergyParams,
    organisation: str = "cam",
) -> ProcessorReport:
    """Re-price one simulated run's counters under different parameters.

    Timing and the rest-of-core energy are untouched (the perturbed
    parameters here are cache-internal), so the result reuses the original
    run's cycles and core energy.
    """
    model = CacheEnergyModel(
        report.geometry,
        params,
        organisation=organisation,
        memo_links=(report.scheme == "way-memoization"),
        wayhint=(report.scheme == "way-placement"),
    )
    breakdown = model.energy(report.counters)
    return ProcessorReport(
        instructions=report.counters.fetches,
        cycles=report.cycles,
        breakdown=breakdown,
        core_pj=report.processor.core_pj,
    )


@dataclass(frozen=True)
class SensitivityPoint:
    """Suite means at one (tag-scale, data-scale) grid point."""

    cam_scale: float
    data_scale: float
    placement_energy: float
    memoization_energy: float

    @property
    def ordering_holds(self) -> bool:
        """The paper's conclusion at this point: WP < memo < baseline."""
        return self.placement_energy < self.memoization_energy < 1.0


@dataclass(frozen=True)
class SensitivityResult:
    """The full grid."""

    points: Tuple[SensitivityPoint, ...]

    def point(self, cam_scale: float, data_scale: float) -> SensitivityPoint:
        for point in self.points:
            if point.cam_scale == cam_scale and point.data_scale == data_scale:
                return point
        raise ExperimentError(
            f"no grid point ({cam_scale}, {data_scale}) in sensitivity result"
        )

    @property
    def conclusion_robust(self) -> bool:
        return all(point.ordering_holds for point in self.points)

    def placement_energy_range(self) -> Tuple[float, float]:
        values = [point.placement_energy for point in self.points]
        return min(values), max(values)


def sensitivity_grid(
    runner: ExperimentRunner,
    cam_scales: Sequence[float] = (0.7, 0.85, 1.0, 1.2, 1.4),
    data_scales: Sequence[float] = (0.7, 0.85, 1.0, 1.2, 1.4),
    benchmarks: Optional[Sequence[str]] = None,
    machine: MachineConfig = XSCALE_BASELINE,
    wpa_size: int = 32 * 1024,
    jobs: int = 1,
    layout_policy: Optional[LayoutPolicy] = None,
) -> SensitivityResult:
    """Suite-mean energies for every (cam, data) scale combination.

    ``layout_policy`` swaps the way-placement runs' code layout, so the
    calibration-robustness question can also be asked of the
    conflict-aware optimizer's layouts.
    """
    benchmarks = list(benchmarks if benchmarks is not None else benchmark_names())
    base_params = runner.energy_params

    # Simulate once per (benchmark, scheme); reprice per grid point.
    cells = suite_cells(benchmarks, machine, (wpa_size,), layout_policy)
    reports: Dict[Tuple[str, str], SimulationReport] = {
        (cell.benchmark, cell.scheme): report
        for cell, report in zip(cells, runner.run_grid(cells, jobs=jobs))
    }

    points = []
    for cam_scale in cam_scales:
        for data_scale in data_scales:
            params = replace(
                base_params,
                cam_pj_per_way_bit=base_params.cam_pj_per_way_bit * cam_scale,
                data_read_pj=base_params.data_read_pj * data_scale,
            )
            placement = []
            memoization = []
            for bench in benchmarks:
                base = reprice_report(reports[(bench, "baseline")], params)
                placed = reprice_report(reports[(bench, "way-placement")], params)
                memo = reprice_report(reports[(bench, "way-memoization")], params)
                placement.append(placed.normalised_icache_energy(base))
                memoization.append(memo.normalised_icache_energy(base))
            points.append(
                SensitivityPoint(
                    cam_scale=cam_scale,
                    data_scale=data_scale,
                    placement_energy=arithmetic_mean(placement),
                    memoization_energy=arithmetic_mean(memoization),
                )
            )
    return SensitivityResult(points=tuple(points))
