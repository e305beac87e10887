"""Experiment grid cells.

A *cell* is one ``(benchmark, scheme, machine, wpa, options)`` simulation —
the arguments of :meth:`ExperimentRunner.report` under the paper's layout
pairing (way-placement on the profile-chained binary).  Every
experiment hands its cells to
:meth:`~repro.experiments.runner.ExperimentRunner.run_grid`, which runs
them under the supervisor (:mod:`repro.resilience.supervisor`) at any
``jobs``: engine fallback, worker crash isolation and resume by running
again, in-process at ``jobs=1`` and on a local worker pool, chunked by
benchmark, otherwise.  Each cell replays on its own — the
vectorized kernel where one exists, else the reference scheme — and the
cells of a benchmark share only its traces.

A cell is its own identity: it is normalised on construction (``l0_size``
only shapes the filter cache, so every other scheme drops it), two cells
that simulate the same thing compare equal, and :attr:`GridCell.key`
spells that identity as one string.  The runner memoises reports by cell,
and the supervisor names cells and keys their stored reports by
:attr:`~GridCell.key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.machine import MachineConfig, XSCALE_BASELINE

__all__ = ["GridCell"]


@dataclass(frozen=True)
class GridCell:
    """One simulation of an experiment grid (picklable by construction)."""

    benchmark: str
    scheme: str
    machine: MachineConfig = XSCALE_BASELINE
    wpa_size: int = 0
    same_line_skip: Optional[bool] = None
    l0_size: int = 512

    def __post_init__(self) -> None:
        if self.scheme != "filter-cache":
            object.__setattr__(self, "l0_size", 0)

    @property
    def key(self) -> str:
        """Every field of the cell, the whole machine included, as one string."""
        return (
            f"{self.benchmark}|{self.scheme}|wpa={self.wpa_size}"
            f"|sls={self.same_line_skip}|l0={self.l0_size}|{self.machine!r}"
        )

    def report_kwargs(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "machine": self.machine,
            "wpa_size": self.wpa_size,
            "same_line_skip": self.same_line_skip,
            "l0_size": self.l0_size,
        }
