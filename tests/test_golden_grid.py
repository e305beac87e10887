"""Golden digest of the whole paper grid: every cell of Figures 4-6.

``paper_figures`` on all 23 benchmarks at 20k/8k replays one grid of 920
cells.  Each cell's report is digested (counters, cycles, energy breakdown
and processor energy), and the digests fold into one entry per
(benchmark, scheme), 69 in all, which must equal the checked-in
``tests/data/paper_grid_digest.json``.  A failure names every pair that
moved.  The grid runs once in-process (shared with the paper-checklist
test through the ``paper_grid`` fixture) and once more on two workers.

After an intended change of the numbers, regenerate the file from the
repository root with

    PYTHONPATH=src python -m tests.test_golden_grid --write

and record the regeneration in CHANGES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.grid import GridCell
from repro.experiments.figures import (
    Figure4Result,
    Figure5Result,
    Figure6Result,
    paper_figures,
)
from repro.experiments.runner import ExperimentRunner
from repro.sim.report import SimulationReport

BUDGETS = {"eval_instructions": 20_000, "profile_instructions": 8_000}
GOLDEN = Path(__file__).resolve().parent / "data" / "paper_grid_digest.json"
GRID_CELLS = 920


@dataclasses.dataclass(frozen=True)
class PaperGrid:
    """The three figures and the one grid of cells behind them."""

    figures: Tuple[Figure4Result, Figure5Result, Figure6Result]
    cells: Tuple[GridCell, ...]
    reports: Tuple[SimulationReport, ...]


def run_paper_grid(jobs: int) -> PaperGrid:
    """Run ``paper_figures`` on a fresh runner, capturing its grid."""
    runner = ExperimentRunner(**BUDGETS)
    grids = []
    run_grid = runner.run_grid

    def spy(cells, **kwargs):
        reports = run_grid(cells, **kwargs)
        grids.append((tuple(cells), tuple(reports)))
        return reports

    runner.run_grid = spy
    figures = paper_figures(runner, jobs=jobs)
    ((cells, reports),) = grids
    return PaperGrid(figures, cells, reports)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_digest(report: SimulationReport) -> str:
    """Digest of everything a cell simulated: counters, cycles, energy."""
    payload = {
        "counters": dataclasses.asdict(report.counters),
        "cycles": report.cycles,
        "breakdown": dataclasses.asdict(report.breakdown),
        "processor_pj": report.processor_energy_pj,
    }
    return _sha(json.dumps(payload, sort_keys=True))


def grid_digests(grid: PaperGrid) -> Dict[str, str]:
    """One digest per ``benchmark/scheme``, over its cells' digests."""
    lines: Dict[str, List[str]] = {}
    for cell, report in zip(grid.cells, grid.reports):
        label = f"{cell.machine.icache.describe()} wpa={cell.wpa_size}"
        pair = f"{cell.benchmark}/{cell.scheme}"
        lines.setdefault(pair, []).append(f"{label} {cell_digest(report)}")
    return {pair: _sha("\n".join(sorted(lines[pair]))) for pair in sorted(lines)}


def moved_pairs(actual: Dict[str, str], expected: Dict[str, str]) -> List[str]:
    """Pairs whose digest differs, or that only one side has."""
    pairs = actual.keys() | expected.keys()
    return sorted(p for p in pairs if actual.get(p) != expected.get(p))


def test_paper_grid_matches_the_golden_digests(paper_grid):
    assert len(paper_grid.cells) == GRID_CELLS
    golden = json.loads(GOLDEN.read_text())["digests"]
    moved = moved_pairs(grid_digests(paper_grid), golden)
    assert not moved, f"{len(moved)} pair(s) moved: {', '.join(moved)}"


def test_parallel_paper_grid_matches_the_serial_one(paper_grid):
    parallel = run_paper_grid(jobs=2)
    assert parallel.cells == paper_grid.cells
    moved = moved_pairs(grid_digests(parallel), grid_digests(paper_grid))
    assert not moved, f"jobs=2 moved {len(moved)} pair(s): {', '.join(moved)}"


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description="Regenerate the paper grid's digests.")
    parser.add_argument(
        "--write", action="store_true", required=True, help=f"rewrite {GOLDEN}"
    )
    parser.parse_args(argv)
    grid = run_paper_grid(jobs=1)
    digests = grid_digests(grid)
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {"budgets": BUDGETS, "cells": len(grid.cells), "digests": digests}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests over {len(grid.cells)} cells to {GOLDEN}")


if __name__ == "__main__":
    main()
