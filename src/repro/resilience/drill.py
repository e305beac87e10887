"""Seeded chaos drills: the library behind ``repro chaos``.

A *drill* derives a deterministic fault schedule from a seed, runs a
supervised parallel grid under it, and checks the acceptance bar of
docs/robustness.md: results bit-identical to a fault-free serial run,
with every injected incident recovered.  The schedule covers every
recovery rung at once: a worker crash and a worker hang (the in-process
rung), kernel sanitizer trips and one cell fault per process (engine
fallback), and a torn write of a line-event entry followed by a full
disk.  The grid then runs again, fault-free, on the same store: that
run reads the torn entry back (a miss, so it re-derives the trace) and
must return the same reports.

:func:`run_drill` runs one seeded drill and returns a summary dict;
:func:`run_matrix` sweeps a seed matrix and aggregates.  Given the same
seeds, the schedules and the verdict fields (``identical``,
``recovered``, ``ok``) are deterministic; incident lists are included for
humans and may vary in order with scheduling.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.grid import GridCell
from repro.experiments.runner import ExperimentRunner
from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule, describe_rules

__all__ = ["drill_cells", "build_rules", "run_drill", "run_matrix"]

KB = 1024

#: Trace budgets small enough for CI, large enough to exercise real replay.
_EVAL_INSTRUCTIONS = 8_000
_PROFILE_INSTRUCTIONS = 4_000


def drill_cells() -> List[GridCell]:
    """The standard drill grid: two benchmarks, baseline + a two-point WPA
    sweep each, so every chunk has cells on both kernels."""
    return [
        GridCell(bench, scheme, wpa_size=wpa)
        for bench in ("crc", "sha")
        for scheme, wpa in (
            ("baseline", 0),
            ("way-placement", 4 * KB),
            ("way-placement", 8 * KB),
        )
    ]


def _make_runner(cache_dir: str, **kwargs: Any) -> ExperimentRunner:
    return ExperimentRunner(
        cache_dir=cache_dir,
        eval_instructions=_EVAL_INSTRUCTIONS,
        profile_instructions=_PROFILE_INSTRUCTIONS,
        **kwargs,
    )


def build_rules(seed: int) -> Tuple[ChaosRule, ...]:
    """A seed-derived schedule covering every recovery rung at once."""
    crash_bench = random.Random(seed).choice(["crc", "sha"])
    hang_bench = "sha" if crash_bench == "crc" else "crc"
    return (
        ChaosRule("worker", "crash", match=crash_bench, times=1),
        ChaosRule("worker", "hang", match=hang_bench, times=1, delay_s=60.0),
        # A way-placement kernel trips the sanitizer: engine fallback.
        ChaosRule("kernel", "sanitizer", match="way-placement", times=1),
        # At most one cell fault per process, so the cell's reference
        # attempt always clears it: engine fallback.
        ChaosRule("cell", "raise", times=1, probability=0.5),
        # The first line-event entry is torn as it is published.  The
        # disk fills up only later, at the first profile save: a full disk
        # disables store writes for the rest of the process, so an earlier
        # one would leave nothing to tear.
        ChaosRule("store.save", "truncate", match="events:", times=1),
        ChaosRule("store.save", "enospc", match="profile:", times=1),
    )


def run_drill(
    seed: int,
    jobs: int = 2,
    reference: Optional[List[Any]] = None,
) -> Dict[str, Any]:
    """One seeded drill; returns its summary dict (see module docstring).

    ``reference`` optionally supplies the fault-free serial reports (so a
    matrix does not recompute them per run).
    """
    want = reference
    if want is None:
        want = _make_runner("off").run_grid(drill_cells(), jobs=1)
    config = ChaosConfig(seed=seed, rules=build_rules(seed))
    with tempfile.TemporaryDirectory() as scratch:
        cache = str(Path(scratch) / "cache")
        runner = _make_runner(cache, timeout_s=10.0)
        # Warm exactly one benchmark's traces before the faults go live:
        # its cells load from the store, while the other benchmark stays
        # cold and keeps exercising the derive-and-persist path under the
        # store.save faults.
        for cell in drill_cells():
            if cell.benchmark != "crc":
                continue
            policy = runner._resolve_layout_policy(cell.scheme, None)
            runner.events(cell.benchmark, policy, cell.machine.icache.line_size)
        with chaos.active(config):
            got = runner.run_grid(drill_cells(), jobs=jobs)
        rerun = _make_runner(cache).run_grid(drill_cells(), jobs=jobs)
    failures = list(runner.last_failures)
    identical = got == want and rerun == want
    recovered = all(failure.recovered for failure in failures)
    return {
        "seed": seed,
        "jobs": jobs,
        "schedule": describe_rules(list(config.rules)).splitlines(),
        "identical": identical,
        "recovered": recovered,
        "ok": identical and recovered,
        "incidents": [failure.describe() for failure in failures],
        "sites": sorted({failure.site for failure in failures}),
    }


def run_matrix(seeds: Sequence[int], jobs: int = 2) -> Dict[str, Any]:
    """Drill every seed; aggregate into one summary."""
    reference = _make_runner("off").run_grid(drill_cells(), jobs=1)
    runs = [run_drill(seed, jobs=jobs, reference=reference) for seed in seeds]
    return {
        "seeds": list(seeds),
        "runs": runs,
        "ok": all(run["ok"] for run in runs),
    }
