"""The fast simulation engine: vectorized kernels, artifact cache, grid runner.

Four layers, each usable on its own:

* :mod:`repro.engine.kernels` — NumPy fast paths replaying a
  :class:`~repro.trace.events.LineEventTrace` with counters bit-identical to
  the reference schemes (``baseline`` and ``way-placement``);
* :mod:`repro.engine.family` — family replay: one traversal of a trace
  emitting bit-identical counters for a whole family of configurations,
  with adjacent sweep configs sharing per-set state (the grid planner
  lives in :mod:`repro.engine.grid`);
* :mod:`repro.engine.store` — a content-hash-keyed on-disk cache for block
  traces, profiles, and line-event traces (``REPRO_CACHE_DIR``, default
  ``.repro_cache/``), so fresh processes stop re-walking CFGs;
* :mod:`repro.engine.grid` — experiment grid cells and the planner that
  coalesces them into families; the runner hands every experiment's cells
  to the supervised grid of :mod:`repro.resilience.supervisor` at any
  ``jobs``.

See ``docs/performance.md`` for the architecture and how to choose between
the ``fast`` and ``reference`` engines, and ``docs/robustness.md`` for the
supervision and fault-injection story.
"""

from repro.engine.arrays import (
    geometry_lists,
    itlb_misses,
    page_numbers,
    sweep_aggregates,
    way_hints,
    wpa_flags,
)
from repro.engine.family import BatchMember, batchable, family_counters
from repro.engine.grid import BatchFamily, GridCell, plan_families
from repro.engine.kernels import (
    FAST_SCHEMES,
    baseline_counters,
    fast_counters,
    way_placement_counters,
)
from repro.engine.store import TraceStore, layout_digest, program_digest

__all__ = [
    "FAST_SCHEMES",
    "BatchFamily",
    "BatchMember",
    "GridCell",
    "TraceStore",
    "baseline_counters",
    "batchable",
    "family_counters",
    "fast_counters",
    "geometry_lists",
    "itlb_misses",
    "layout_digest",
    "page_numbers",
    "plan_families",
    "program_digest",
    "sweep_aggregates",
    "way_hints",
    "way_placement_counters",
    "wpa_flags",
]
