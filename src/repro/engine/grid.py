"""Parallel experiment grids: fan simulation cells across worker processes.

A *cell* is one ``(benchmark, scheme, machine, wpa, options)`` simulation —
exactly the argument tuple of :meth:`ExperimentRunner.report`.  The figure
and sensitivity grids are hundreds of cells that share traces per
benchmark, so the fan-out is **chunked by benchmark**: each worker process
receives every cell of one benchmark, derives (or loads from the persistent
:class:`~repro.engine.store.TraceStore`) that benchmark's traces once, and
ships the finished :class:`~repro.sim.report.SimulationReport` objects
back.  The parent adopts them into its memo, so subsequent ``report()`` /
``normalised()`` calls are cache hits.

Execution is **supervised** (see :mod:`repro.resilience.supervisor`):
failing cells are retried with backoff, kernel/sanitizer failures degrade
to the bit-identical reference engine, crashed or hung workers are killed
and their remaining cells re-run on fresh workers (then in-process), and
completed cells are checkpointed to a resume journal.  Every completed
report is adopted into the runner's memo *before* any failure surfaces —
a partial grid keeps all of its finished work, and a
:class:`~repro.errors.CellFailure` carries structured
:class:`~repro.resilience.policy.FailureReport` records for the rest.

``jobs <= 1`` runs everything in-process with no workers — identical
results, no pickling, the right default for tests and single-benchmark
work.

Under the ``fast`` engine (the default) a second coalescing layer kicks
in: the **planner** (:func:`plan_families`) groups the cells of a chunk into
*families* — cells replaying the same line-event trace under the same
cache geometry — and each family runs as **one** traversal of the trace via
:func:`repro.engine.family.family_counters`, fanning the per-config
counters back to the original cells in input order.  Cells family replay
cannot model (schemes without a kernel, exotic options) stay on the
per-cell engines, and a family that fails for any reason degrades to the
per-cell supervision ladder, so supervision semantics are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.engine.family import batchable
from repro.errors import SchemeError
from repro.layout.placement import LayoutPolicy
from repro.resilience.policy import ResilienceConfig
from repro.resilience.supervisor import supervise_grid
from repro.sim.machine import MachineConfig, XSCALE_BASELINE
from repro.sim.report import SimulationReport

__all__ = ["BatchFamily", "GridCell", "plan_families", "run_grid"]


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


@dataclass(frozen=True)
class BatchFamily:
    """Cells that can replay with one traversal of one line-event trace.

    Membership is keyed by everything the *trace* and the *sequential cache
    state* depend on: the benchmark and resolved layout policy select the
    line-event trace (the trace signature — the persistent store's content
    key is a function of exactly these), and the geometry fixes the set/tag
    decomposition shared by every member.  Everything else a cell varies —
    WPA size, ``same_line_skip``, page size, I-TLB entries — is a per-member
    option of family replay.
    """

    benchmark: str
    layout_policy: LayoutPolicy
    geometry: CacheGeometry
    indices: Tuple[int, ...]


PolicyResolver = Callable[[str, Optional[LayoutPolicy]], LayoutPolicy]


def plan_families(
    cells: Sequence[GridCell],
    resolve_policy: PolicyResolver,
) -> Tuple[List[BatchFamily], List[int]]:
    """Coalesce grid cells into families.

    Returns ``(families, singles)``: families of two or more batchable cells
    (indices into ``cells`` in input order), and the indices of every other
    cell — non-batchable schemes/options, invalid combinations (left for the
    per-cell path to diagnose), and one-member groups, for which a family
    traversal would only add overhead.  ``resolve_policy`` maps a cell's
    ``(scheme, layout_policy)`` to the layout actually simulated (the
    runner's scheme/layout pairing).
    """
    # Imported lazily: repro.sim.simulator itself imports the engine
    # package, so a module-level import here would be circular.
    from repro.sim.simulator import scheme_options

    groups: dict = {}
    singles: List[int] = []
    for index, cell in enumerate(cells):
        try:
            options = scheme_options(
                cell.machine,
                cell.scheme,
                wpa_size=cell.wpa_size,
                same_line_skip=cell.same_line_skip,
                l0_size=cell.l0_size,
            )
        except SchemeError:
            singles.append(index)
            continue
        if not batchable(cell.scheme, options):
            singles.append(index)
            continue
        key = (
            cell.benchmark,
            resolve_policy(cell.scheme, cell.layout_policy),
            cell.machine.icache,
        )
        groups.setdefault(key, []).append(index)

    families: List[BatchFamily] = []
    for (benchmark, policy, geometry), indices in groups.items():
        if len(indices) < 2:
            singles.extend(indices)
            continue
        families.append(
            BatchFamily(
                benchmark=benchmark,
                layout_policy=policy,
                geometry=geometry,
                indices=tuple(indices),
            )
        )
    singles.sort()
    return families, singles


def run_grid(
    runner,
    cells: Sequence[GridCell],
    jobs: int = 1,
    resilience: Optional[ResilienceConfig] = None,
) -> List[SimulationReport]:
    """Simulate ``cells`` under supervision; returns reports in input order.

    ``runner`` is an :class:`~repro.experiments.runner.ExperimentRunner`;
    every result is also adopted into its report memo (even on partial
    failure, before :class:`~repro.errors.CellFailure` is raised).  The
    retry/timeout/fallback/resume behaviour comes from ``resilience``,
    defaulting to the runner's own config
    (:data:`~repro.resilience.policy.DEFAULT_RESILIENCE` otherwise); the
    structured outcome lands on ``runner.last_grid`` and
    ``runner.last_failures``.
    """
    if resilience is None:
        resilience = getattr(runner, "resilience", None)
    return supervise_grid(runner, cells, jobs=jobs, config=resilience)
