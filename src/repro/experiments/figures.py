"""Regeneration of the paper's figures (4, 5, 6) as structured results.

Each ``figureN`` function builds the exact experiment grid of the paper's
Section 6, runs it as one supervised grid through
:meth:`~repro.experiments.runner.ExperimentRunner.run_grid` (at any
``jobs``), then aggregates its result from the runner's memo.  The result
object knows how to render itself as the ASCII equivalent of the figure (the
series the paper plots, as table rows).  :func:`paper_figures` runs all
three figures as one grid over the de-duplicated union of their cells.

The paper plots arithmetic means over the benchmark suite ("averaged across
all benchmarks"); the result objects expose those plus per-benchmark detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.grid import GridCell
from repro.errors import ExperimentError
from repro.experiments.formatting import format_pct, format_ratio, render_table
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.sim.machine import MachineConfig, XSCALE_BASELINE
from repro.sim.report import NormalisedResult
from repro.utils.stats import arithmetic_mean
from repro.workloads.mibench import benchmark_names

__all__ = [
    "Figure4Result",
    "Figure5Result",
    "Figure6Result",
    "figure4",
    "figure5",
    "figure6",
    "paper_figures",
    "suite_cells",
    "FIGURE4_WPA_SIZE",
    "FIGURE5_WPA_SIZES",
    "FIGURE6_CACHE_SIZES",
    "FIGURE6_WAYS",
    "FIGURE6_WPA_SIZES",
]

_KB = 1024

#: Section 6.1: the way-placement area of the initial evaluation.
FIGURE4_WPA_SIZE = 32 * _KB
#: Section 6.2: the way-placement area sweep, 32KB down to 1KB.
FIGURE5_WPA_SIZES: Tuple[int, ...] = tuple(s * _KB for s in (32, 16, 8, 4, 2, 1))
#: Section 6.3: cache sizes and associativities.
FIGURE6_CACHE_SIZES: Tuple[int, ...] = tuple(s * _KB for s in (16, 32, 64))
FIGURE6_WAYS: Tuple[int, ...] = (8, 16, 32)
#: Section 6.3: the two way-placement area sizes shown in Figure 6.
FIGURE6_WPA_SIZES: Tuple[int, ...] = (16 * _KB, 8 * _KB)


def _wpa_label(wpa_size: int) -> str:
    return f"{wpa_size // _KB}KB"


def _suite(benchmarks: Optional[Sequence[str]]) -> Tuple[str, ...]:
    return tuple(benchmarks if benchmarks is not None else benchmark_names())


def suite_cells(
    benchmarks: Sequence[str],
    machine: MachineConfig,
    wpa_sizes: Sequence[int],
    layout_policy: Optional[LayoutPolicy] = None,
) -> List[GridCell]:
    """Each benchmark's baseline, way-memoization and way-placement cells.

    One way-placement cell per WPA size, on ``layout_policy``'s layout (the
    scheme's pairing by default).  These are the rows every Section 6
    experiment normalises and averages, so an empty suite has nothing to
    average and raises :class:`~repro.errors.ExperimentError`.
    """
    if not benchmarks:
        raise ExperimentError("an experiment needs at least one benchmark")
    cells = []
    for bench in benchmarks:
        cells.append(GridCell(bench, "baseline", machine))
        cells.append(GridCell(bench, "way-memoization", machine))
        cells.extend(
            GridCell(
                bench, "way-placement", machine, wpa_size=wpa, layout_policy=layout_policy
            )
            for wpa in wpa_sizes
        )
    return cells


class _Plan(NamedTuple):
    """A figure's grid cells and its aggregation over the runner's memo."""

    cells: List[GridCell]
    aggregate: Callable[[ExperimentRunner], Any]


def _run(runner: ExperimentRunner, jobs: int, *plans: _Plan) -> List[Any]:
    """Run the plans' de-duplicated cells as one grid, then aggregate each."""
    cells = list(dict.fromkeys(cell for plan in plans for cell in plan.cells))
    runner.run_grid(cells, jobs=jobs)
    return [plan.aggregate(runner) for plan in plans]


# ---------------------------------------------------------------------------
# Figure 4 — per-benchmark energy and ED, 32KB/32-way, 32KB WPA
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure4Result:
    """Per-benchmark normalised energy/ED for way-memoization vs placement."""

    machine: MachineConfig
    wpa_size: int
    benchmarks: Tuple[str, ...]
    memoization: Dict[str, NormalisedResult]
    placement: Dict[str, NormalisedResult]

    # -- the averages the paper quotes --------------------------------------
    @property
    def mean_memoization_energy(self) -> float:
        return arithmetic_mean(
            self.memoization[b].icache_energy for b in self.benchmarks
        )

    @property
    def mean_placement_energy(self) -> float:
        return arithmetic_mean(
            self.placement[b].icache_energy for b in self.benchmarks
        )

    @property
    def mean_memoization_ed(self) -> float:
        return arithmetic_mean(self.memoization[b].ed_product for b in self.benchmarks)

    @property
    def mean_placement_ed(self) -> float:
        return arithmetic_mean(self.placement[b].ed_product for b in self.benchmarks)

    def render(self) -> str:
        energy_rows = [
            [
                bench,
                format_pct(self.memoization[bench].icache_energy),
                format_pct(self.placement[bench].icache_energy),
            ]
            for bench in self.benchmarks
        ]
        energy_rows.append(
            [
                "average",
                format_pct(self.mean_memoization_energy),
                format_pct(self.mean_placement_energy),
            ]
        )
        ed_rows = [
            [
                bench,
                format_ratio(self.memoization[bench].ed_product),
                format_ratio(self.placement[bench].ed_product),
            ]
            for bench in self.benchmarks
        ]
        ed_rows.append(
            [
                "average",
                format_ratio(self.mean_memoization_ed),
                format_ratio(self.mean_placement_ed),
            ]
        )
        headers = ["benchmark", "way-memoization", "way-placement"]
        cache = self.machine.icache.describe()
        return "\n\n".join(
            [
                render_table(
                    f"Figure 4(a): normalised I-cache energy (%) — {cache}, "
                    f"{_wpa_label(self.wpa_size)} WPA",
                    headers,
                    energy_rows,
                ),
                render_table(
                    f"Figure 4(b): ED product — {cache}, "
                    f"{_wpa_label(self.wpa_size)} WPA",
                    headers,
                    ed_rows,
                ),
            ]
        )


def _figure4_plan(
    benchmarks: Tuple[str, ...],
    machine: MachineConfig,
    wpa_size: int,
    layout_policy: Optional[LayoutPolicy],
) -> _Plan:
    def aggregate(runner: ExperimentRunner) -> Figure4Result:
        return Figure4Result(
            machine=machine,
            wpa_size=wpa_size,
            benchmarks=benchmarks,
            memoization={
                bench: runner.normalised(bench, "way-memoization", machine)
                for bench in benchmarks
            },
            placement={
                bench: runner.normalised(
                    bench,
                    "way-placement",
                    machine,
                    wpa_size=wpa_size,
                    layout_policy=layout_policy,
                )
                for bench in benchmarks
            },
        )

    return _Plan(suite_cells(benchmarks, machine, (wpa_size,), layout_policy), aggregate)


def figure4(
    runner: ExperimentRunner,
    benchmarks: Optional[Sequence[str]] = None,
    machine: MachineConfig = XSCALE_BASELINE,
    wpa_size: int = FIGURE4_WPA_SIZE,
    jobs: int = 1,
    layout_policy: Optional[LayoutPolicy] = None,
) -> Figure4Result:
    """Reproduce Figure 4: the paper's initial evaluation.

    ``jobs`` worker processes run the (benchmark, scheme) grid (one runs it
    in-process).  ``layout_policy`` swaps the way-placement runs' code
    layout (e.g. ``LayoutPolicy.CONFLICT_AWARE`` for the trace-free
    optimizer).
    """
    plan = _figure4_plan(_suite(benchmarks), machine, wpa_size, layout_policy)
    return _run(runner, jobs, plan)[0]


# ---------------------------------------------------------------------------
# Figure 5 — way-placement area size sweep, means over the suite
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure5Result:
    """Suite means for each way-placement area size, plus way-memoization."""

    machine: MachineConfig
    wpa_sizes: Tuple[int, ...]
    benchmarks: Tuple[str, ...]
    placement_energy: Dict[int, float]  # wpa size -> mean normalised energy
    placement_ed: Dict[int, float]
    memoization_energy: float
    memoization_ed: float

    def render(self) -> str:
        cache = self.machine.icache.describe()
        energy_rows = [
            [_wpa_label(w), format_pct(self.placement_energy[w])]
            for w in self.wpa_sizes
        ]
        energy_rows.append(["way-memo", format_pct(self.memoization_energy)])
        ed_rows = [
            [_wpa_label(w), format_ratio(self.placement_ed[w])] for w in self.wpa_sizes
        ]
        ed_rows.append(["way-memo", format_ratio(self.memoization_ed)])
        return "\n\n".join(
            [
                render_table(
                    f"Figure 5(a): mean normalised I-cache energy (%) vs WPA size — {cache}",
                    ["WPA size", "energy %"],
                    energy_rows,
                ),
                render_table(
                    f"Figure 5(b): mean ED product vs WPA size — {cache}",
                    ["WPA size", "ED"],
                    ed_rows,
                ),
            ]
        )


def _suite_means(
    runner: ExperimentRunner,
    benchmarks: Tuple[str, ...],
    machine: MachineConfig,
    wpa_sizes: Tuple[int, ...],
    layout_policy: Optional[LayoutPolicy],
) -> Figure6Cell:
    """Suite-mean normalised energy and ED of way-memoization and of
    way-placement at each WPA size, on one machine."""
    memo = [runner.normalised(bench, "way-memoization", machine) for bench in benchmarks]
    placement_energy: Dict[int, float] = {}
    placement_ed: Dict[int, float] = {}
    for wpa in wpa_sizes:
        results = [
            runner.normalised(
                bench,
                "way-placement",
                machine,
                wpa_size=wpa,
                layout_policy=layout_policy,
            )
            for bench in benchmarks
        ]
        placement_energy[wpa] = arithmetic_mean(r.icache_energy for r in results)
        placement_ed[wpa] = arithmetic_mean(r.ed_product for r in results)
    return Figure6Cell(
        memoization_energy=arithmetic_mean(r.icache_energy for r in memo),
        memoization_ed=arithmetic_mean(r.ed_product for r in memo),
        placement_energy=placement_energy,
        placement_ed=placement_ed,
    )


def _figure5_plan(
    benchmarks: Tuple[str, ...],
    wpa_sizes: Tuple[int, ...],
    machine: MachineConfig,
    layout_policy: Optional[LayoutPolicy],
) -> _Plan:
    if not wpa_sizes:
        raise ExperimentError("figure 5 needs at least one WPA size")

    def aggregate(runner: ExperimentRunner) -> Figure5Result:
        means = _suite_means(runner, benchmarks, machine, wpa_sizes, layout_policy)
        return Figure5Result(
            machine=machine,
            wpa_sizes=wpa_sizes,
            benchmarks=benchmarks,
            placement_energy=means.placement_energy,
            placement_ed=means.placement_ed,
            memoization_energy=means.memoization_energy,
            memoization_ed=means.memoization_ed,
        )

    return _Plan(suite_cells(benchmarks, machine, wpa_sizes, layout_policy), aggregate)


def figure5(
    runner: ExperimentRunner,
    wpa_sizes: Sequence[int] = FIGURE5_WPA_SIZES,
    benchmarks: Optional[Sequence[str]] = None,
    machine: MachineConfig = XSCALE_BASELINE,
    jobs: int = 1,
    layout_policy: Optional[LayoutPolicy] = None,
) -> Figure5Result:
    """Reproduce Figure 5: the effect of shrinking the way-placement area."""
    plan = _figure5_plan(_suite(benchmarks), tuple(wpa_sizes), machine, layout_policy)
    return _run(runner, jobs, plan)[0]


# ---------------------------------------------------------------------------
# Figure 6 — cache size x associativity grid
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure6Cell:
    """Suite means for one cache configuration."""

    memoization_energy: float
    memoization_ed: float
    placement_energy: Dict[int, float]  # wpa size -> mean energy
    placement_ed: Dict[int, float]


@dataclass(frozen=True)
class Figure6Result:
    """The full size x ways grid of Figure 6."""

    cache_sizes: Tuple[int, ...]
    ways_list: Tuple[int, ...]
    wpa_sizes: Tuple[int, ...]
    benchmarks: Tuple[str, ...]
    cells: Dict[Tuple[int, int], Figure6Cell] = field(default_factory=dict)

    def cell(self, size_bytes: int, ways: int) -> Figure6Cell:
        try:
            return self.cells[(size_bytes, ways)]
        except KeyError:
            raise ExperimentError(
                f"figure 6 grid has no ({size_bytes}B, {ways}-way) cell"
            ) from None

    def best_ed(self) -> Tuple[Tuple[int, int], int, float]:
        """((size, ways), wpa, value) of the lowest ED in the whole grid."""
        best = None
        for key, cell in self.cells.items():
            for wpa, value in cell.placement_ed.items():
                if best is None or value < best[2]:
                    best = (key, wpa, value)
        return best

    def render(self) -> str:
        headers = ["cache", "ways", "way-memo"] + [
            f"WP {_wpa_label(w)}" for w in self.wpa_sizes
        ]
        energy_rows = []
        ed_rows = []
        for size in self.cache_sizes:
            for ways in self.ways_list:
                cell = self.cells[(size, ways)]
                base = [f"{size // _KB}KB", str(ways)]
                energy_rows.append(
                    base
                    + [format_pct(cell.memoization_energy)]
                    + [format_pct(cell.placement_energy[w]) for w in self.wpa_sizes]
                )
                ed_rows.append(
                    base
                    + [format_ratio(cell.memoization_ed)]
                    + [format_ratio(cell.placement_ed[w]) for w in self.wpa_sizes]
                )
        return "\n\n".join(
            [
                render_table(
                    "Figure 6(a): mean normalised I-cache energy (%) across "
                    "cache configurations",
                    headers,
                    energy_rows,
                ),
                render_table(
                    "Figure 6(b): mean ED product across cache configurations",
                    headers,
                    ed_rows,
                ),
            ]
        )


def _figure6_plan(
    benchmarks: Tuple[str, ...],
    cache_sizes: Tuple[int, ...],
    ways_list: Tuple[int, ...],
    wpa_sizes: Tuple[int, ...],
    layout_policy: Optional[LayoutPolicy],
) -> _Plan:
    machines = {
        (size, ways): XSCALE_BASELINE.with_icache(size, ways)
        for size in cache_sizes
        for ways in ways_list
    }

    def aggregate(runner: ExperimentRunner) -> Figure6Result:
        return Figure6Result(
            cache_sizes=cache_sizes,
            ways_list=ways_list,
            wpa_sizes=wpa_sizes,
            benchmarks=benchmarks,
            cells={
                key: _suite_means(runner, benchmarks, machine, wpa_sizes, layout_policy)
                for key, machine in machines.items()
            },
        )

    cells = [
        cell
        for machine in machines.values()
        for cell in suite_cells(benchmarks, machine, wpa_sizes, layout_policy)
    ]
    return _Plan(cells, aggregate)


def figure6(
    runner: ExperimentRunner,
    cache_sizes: Sequence[int] = FIGURE6_CACHE_SIZES,
    ways_list: Sequence[int] = FIGURE6_WAYS,
    wpa_sizes: Sequence[int] = FIGURE6_WPA_SIZES,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: int = 1,
    layout_policy: Optional[LayoutPolicy] = None,
) -> Figure6Result:
    """Reproduce Figure 6: varying cache size and associativity."""
    plan = _figure6_plan(
        _suite(benchmarks),
        tuple(cache_sizes),
        tuple(ways_list),
        tuple(wpa_sizes),
        layout_policy,
    )
    return _run(runner, jobs, plan)[0]


def paper_figures(
    runner: ExperimentRunner,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> Tuple[Figure4Result, Figure5Result, Figure6Result]:
    """Figures 4, 5 and 6 at the paper's parameters, run as one grid.

    The figures share cells — Figure 5's sweep holds Figure 4's, and
    Figure 6's 32KB/32-way row holds part of Figure 5's — so the grid is
    their de-duplicated union: 40 cells per benchmark.
    """
    suite = _suite(benchmarks)
    fig4, fig5, fig6 = _run(
        runner,
        jobs,
        _figure4_plan(suite, XSCALE_BASELINE, FIGURE4_WPA_SIZE, None),
        _figure5_plan(suite, FIGURE5_WPA_SIZES, XSCALE_BASELINE, None),
        _figure6_plan(
            suite, FIGURE6_CACHE_SIZES, FIGURE6_WAYS, FIGURE6_WPA_SIZES, None
        ),
    )
    return fig4, fig5, fig6
