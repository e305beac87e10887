"""Experiment grid cells and the family planner.

A *cell* is one ``(benchmark, scheme, machine, wpa, options)`` simulation —
exactly the argument tuple of :meth:`ExperimentRunner.report`.  Every
experiment hands its cells to
:meth:`~repro.experiments.runner.ExperimentRunner.run_grid`, which runs
them under the supervisor (:mod:`repro.resilience.supervisor`) at any
``jobs``: retry/backoff, engine fallback, worker crash isolation and
checkpoint–resume, in-process at ``jobs=1`` and on a local worker pool,
chunked by benchmark, otherwise.

Under the ``fast`` engine (the default) the supervisor coalesces each
benchmark's cells with the **planner** (:func:`plan_families`): cells
replaying the same line-event trace under the same cache geometry form a
*family*, and each family runs as **one** traversal of the trace via
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
from repro.sim.machine import MachineConfig, XSCALE_BASELINE

__all__ = ["BatchFamily", "GridCell", "plan_families"]


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
