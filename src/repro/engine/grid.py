"""Experiment grid cells.

A *cell* is one ``(benchmark, scheme, machine, wpa, options)`` simulation —
exactly the argument tuple of :meth:`ExperimentRunner.report`.  Every
experiment hands its cells to
:meth:`~repro.experiments.runner.ExperimentRunner.run_grid`, which runs
them under the supervisor (:mod:`repro.resilience.supervisor`) at any
``jobs``: engine fallback, worker crash isolation and checkpoint–resume,
in-process at ``jobs=1`` and on a local worker pool, chunked by
benchmark, otherwise.  Each cell replays on its own — the
vectorized kernel where one exists, else the reference scheme — and the
cells of a benchmark share only its traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.layout.placement import LayoutPolicy
from repro.sim.machine import MachineConfig, XSCALE_BASELINE

__all__ = ["GridCell"]


@dataclass(frozen=True)
class GridCell:
    """One simulation of an experiment grid (picklable by construction)."""

    benchmark: str
    scheme: str
    machine: MachineConfig = XSCALE_BASELINE
    wpa_size: int = 0
    layout_policy: Optional[LayoutPolicy] = None
    same_line_skip: Optional[bool] = None
    l0_size: int = 512

    def report_kwargs(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "machine": self.machine,
            "wpa_size": self.wpa_size,
            "layout_policy": self.layout_policy,
            "same_line_skip": self.same_line_skip,
            "l0_size": self.l0_size,
        }
