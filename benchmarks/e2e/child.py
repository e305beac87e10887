"""One paper experiment in a fresh process, as a user's CLI call pays for it.

``python child.py SPEC.json`` reads a spec written by ``run.py``, imports
the library, builds an :class:`~repro.experiments.runner.ExperimentRunner`
(the end of set-up), runs one experiment through the public API, and writes
a JSON result next to the spec: the timings, a digest of every simulated
cell, the paper's headline numbers and, when asked, an oracle check and the
outside-in layer trace.  Everything after the experiment call is outside
the timer.

This module also holds the workload table, which ``run.py`` imports
without importing the library.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence


class Workload(NamedTuple):
    experiment: str  # "figure4", "figure6" or "report"
    warm: bool  # time it on a store primed by an untimed run
    jobs: int


#: Worker processes of the parallel workload and of priming: two, never
#: more than the host has.
JOBS = min(2, os.cpu_count() or 1)

#: Each workload runs the full 23-benchmark suite; see README.md for why
#: each one is here and which layers it stresses.
WORKLOADS: Dict[str, Workload] = {
    # The only workload where derivation (walk, profile, line events,
    # store writes) runs.
    "fig4-cold": Workload("figure4", warm=False, jobs=1),
    # What every re-run costs: program build, store reads, way-memo replay.
    "fig4-warm": Workload("figure4", warm=True, jobs=1),
    # Replay-dominated: 828 cells over nine cache geometries.
    "fig6-warm": Workload("figure6", warm=True, jobs=1),
    # The headline command and the only parallel path (supervisor, forked
    # workers, shared-memory plane).
    "report-warm-j2": Workload("report", warm=True, jobs=JOBS),
}

#: Priming derives every artifact the warm workloads load: they all share
#: figure4's layouts and line size, and differ only in cache geometry.
PRIME = Workload("figure4", warm=False, jobs=JOBS)

#: The reduced suite and budget the smoke test runs (never the benchmark).
SMOKE_BENCHMARKS = ("crc", "sha")
SMOKE_BUDGET = {"eval_instructions": 20_000, "profile_instructions": 8_000}

#: The paper's headline numbers, in percent of baseline I-cache energy:
#: Figure 4 way-placement ~50% and way-memoization ~68% (a 32% saving);
#: Figure 6's best configuration saves 55-59%, i.e. ~43%.
PAPER_FIG4_PLACEMENT = 50.0
PAPER_FIG4_MEMOIZATION = 68.0
PAPER_FIG6_BEST = 43.0

_KB = 1024
#: ``figure4``'s default way-placement area.
_FIG4_WPA = 32 * _KB
#: Schemes with a fast path that the reference schemes can check.
_ORACLE_SCHEMES = ("baseline", "way-placement")


def cell_id(cell: Any) -> str:
    geometry = cell.machine.icache
    return (
        f"{cell.benchmark}|{cell.scheme}|{geometry.size_bytes // _KB}K"
        f"x{geometry.ways}|wpa{cell.wpa_size // _KB}K"
    )


def experiment_cells(experiment: str, benchmarks: Sequence[str]) -> List[Any]:
    """Every distinct cell the experiment simulates, mirroring its grid."""
    from repro.engine.grid import GridCell
    from repro.experiments.figures import (
        FIGURE5_WPA_SIZES,
        FIGURE6_CACHE_SIZES,
        FIGURE6_WAYS,
        FIGURE6_WPA_SIZES,
    )
    from repro.sim.machine import XSCALE_BASELINE

    def suite(machine: Any, wpa_sizes: Sequence[int]) -> List[Any]:
        cells = []
        for bench in benchmarks:
            cells.append(GridCell(bench, "baseline", machine))
            cells.append(GridCell(bench, "way-memoization", machine))
            cells += [
                GridCell(bench, "way-placement", machine, wpa_size=wpa) for wpa in wpa_sizes
            ]
        return cells

    fig4 = suite(XSCALE_BASELINE, (_FIG4_WPA,))
    fig6 = [
        cell
        for size in FIGURE6_CACHE_SIZES
        for ways in FIGURE6_WAYS
        for cell in suite(XSCALE_BASELINE.with_icache(size, ways), FIGURE6_WPA_SIZES)
    ]
    chosen = {
        "figure4": fig4,
        "figure6": fig6,
        "report": fig4 + suite(XSCALE_BASELINE, FIGURE5_WPA_SIZES) + fig6,
    }[experiment]
    return list({cell_id(cell): cell for cell in chosen}.values())


def cell_digest(report: Any) -> str:
    """Digest of everything a cell simulated: counters, cycles, energy."""
    payload = {
        "counters": dataclasses.asdict(report.counters),
        "cycles": report.cycles,
        "breakdown": dataclasses.asdict(report.breakdown),
        "processor_pj": report.processor_energy_pj,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _paper_numbers(
    experiment: str, runner: Any, benchmarks: Optional[Sequence[str]], result: Any
) -> Dict[str, Any]:
    """Headline numbers, their distance to the paper, and the checklist.

    For ``report`` the figures are recomputed from the runner's memo, which
    the timed call filled, so this replays nothing.
    """
    from repro.experiments.figures import figure4, figure5, figure6
    from repro.experiments.report import paper_checklist

    fig4 = fig6 = None
    checklist = None
    if experiment == "figure4":
        fig4 = result
    elif experiment == "figure6":
        fig6 = result
    else:
        fig4 = figure4(runner, benchmarks=benchmarks)
        fig5 = figure5(runner, benchmarks=benchmarks)
        fig6 = figure6(runner, benchmarks=benchmarks)
        checklist = [item.passed for item in paper_checklist(fig4, fig5, fig6)]
    numbers: Dict[str, float] = {}
    errors = []
    if fig4 is not None:
        numbers["fig4_placement_pct"] = 100 * fig4.mean_placement_energy
        numbers["fig4_memoization_pct"] = 100 * fig4.mean_memoization_energy
        errors += [
            abs(numbers["fig4_placement_pct"] - PAPER_FIG4_PLACEMENT),
            abs(numbers["fig4_memoization_pct"] - PAPER_FIG4_MEMOIZATION),
        ]
    if fig6 is not None:
        best = fig6.cell(max(fig6.cache_sizes), max(fig6.ways_list))
        numbers["fig6_best_pct"] = 100 * min(best.placement_energy.values())
        errors.append(abs(numbers["fig6_best_pct"] - PAPER_FIG6_BEST))
    return {"numbers": numbers, "paper_err_pp": max(errors), "checklist": checklist}


def _oracle(
    spec: Dict[str, Any], runner: Any, cells: Sequence[Any], budget: Dict[str, Any]
) -> Dict[str, Any]:
    """Re-simulate a seeded sample of fast-path cells on the reference schemes."""
    from repro.experiments.runner import ExperimentRunner

    candidates = [cell for cell in cells if cell.scheme in _ORACLE_SCHEMES]
    sample = random.Random(spec["seed"]).sample(candidates, min(spec["oracle"], len(candidates)))
    reference = ExperimentRunner(
        seed=spec["seed"], cache_dir=spec["store"], engine="reference", **budget
    )
    mismatched = [
        cell_id(cell)
        for cell in sample
        if cell_digest(reference.report(**cell.report_kwargs()))
        != cell_digest(runner.report(**cell.report_kwargs()))
    ]
    return {"checked": len(sample), "mismatched": mismatched}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    # Set-up is everything up to a constructed runner, imports included.
    from repro.experiments.report import reproduction_report  # noqa: F401
    from repro.experiments.runner import ExperimentRunner

    budget: Dict[str, Any] = {}
    benchmarks = None
    if spec["smoke"]:
        budget = SMOKE_BUDGET
        benchmarks = list(SMOKE_BENCHMARKS)
    runner = ExperimentRunner(seed=spec["seed"], cache_dir=spec["store"], **budget)
    out: Dict[str, Any] = {"t_ready": time.monotonic()}
    if spec["mode"] == "run":
        out.update(_run(spec, runner, benchmarks, budget))
    Path(spec["result"]).write_text(json.dumps(out))


def _run(
    spec: Dict[str, Any], runner: Any, benchmarks: Optional[List[str]], budget: Dict[str, Any]
) -> Dict[str, Any]:
    import numpy
    from repro.experiments.figures import figure4, figure6
    from repro.experiments.report import reproduction_report
    from repro.workloads.mibench import benchmark_names

    from tracing import ROOT_SPAN, Tracer, install, layer_metrics

    experiment, jobs = spec["experiment"], spec["jobs"]
    call = {
        "figure4": figure4,
        "figure6": figure6,
        "report": reproduction_report,
    }[experiment]
    tracer = None
    if spec["trace"]:
        tracer = Tracer(run_id=spec["run_id"])
        install(tracer)
    root = tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with root:
        result = call(runner, benchmarks=benchmarks, jobs=jobs)
    wall = time.perf_counter() - start
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out: Dict[str, Any] = {
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024,
        "numpy": numpy.__version__,
        "eval_instructions": runner.eval_instructions,
        "profile_instructions": runner.profile_instructions,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer)
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))

    cells = experiment_cells(experiment, benchmarks or benchmark_names())
    # A cell the experiment did not memoise means this table no longer
    # mirrors the experiment's grid; it is reported, not simulated.
    out["missing"] = [cell_id(cell) for cell in cells if not runner.has_report(cell)]
    out["cells"] = {
        cell_id(cell): cell_digest(runner.report(**cell.report_kwargs()))
        for cell in cells
        if runner.has_report(cell)
    }
    out["paper"] = _paper_numbers(experiment, runner, benchmarks, result)
    if spec["oracle"]:
        out["oracle"] = _oracle(spec, runner, cells, budget)
    return out


if __name__ == "__main__":
    main(sys.argv[1])
