"""The fast simulation engine: vectorized kernels, artifact cache, grid cells.

Three layers, each usable on its own:

* :mod:`repro.engine.kernels` — NumPy fast paths replaying a
  :class:`~repro.trace.events.LineEventTrace` with counters bit-identical to
  the reference schemes (``baseline`` and ``way-placement``), over the
  per-trace arrays of :mod:`repro.engine.arrays`;
* :mod:`repro.engine.store` — a content-hash-keyed on-disk cache for block
  traces, profiles, and line-event traces (``REPRO_CACHE_DIR``, default
  ``.repro_cache/``), so fresh processes stop re-walking CFGs;
* :mod:`repro.engine.grid` — experiment grid cells; the runner hands every
  experiment's cells to the supervised grid of
  :mod:`repro.resilience.supervisor` at any ``jobs``, which replays each
  cell on its own.

See ``docs/performance.md`` for the architecture and how to choose between
the ``fast`` and ``reference`` engines, and ``docs/robustness.md`` for the
supervision and fault-injection story.
"""

from repro.engine.arrays import (
    geometry_lists,
    itlb_misses,
    page_numbers,
    way_hints,
    wpa_flags,
)
from repro.engine.grid import GridCell
from repro.engine.kernels import (
    FAST_SCHEMES,
    baseline_counters,
    fast_counters,
    way_placement_counters,
)
from repro.engine.store import TraceStore, layout_digest, program_digest

__all__ = [
    "FAST_SCHEMES",
    "GridCell",
    "TraceStore",
    "baseline_counters",
    "fast_counters",
    "geometry_lists",
    "itlb_misses",
    "layout_digest",
    "page_numbers",
    "program_digest",
    "way_hints",
    "way_placement_counters",
    "wpa_flags",
]
