"""repro.analysis.absint — abstract interpretation of the cache.

An iterative must/may dataflow analysis over the interprocedural CFG,
the resolved layout, and the WPA placement.  Per ``(scheme, geometry,
wpa)`` configuration it derives, without replaying a single event:

* :mod:`~repro.analysis.absint.lattice` — the join-semilattice of
  abstract cache-set states (per-line must/may residency bitmasks with
  structural *budget-one* set proofs) and the sound transfer function;
* :mod:`~repro.analysis.absint.analysis` — the fixpoint engine: a
  call-threading ICFG, reverse-postorder iteration driven by the
  verifier's dominator machinery, per-site HIT/MISS/UNKNOWN
  classification, proven never-hit lines, loop headers;
* :mod:`~repro.analysis.absint.bounds` — static lower/upper bounds on
  every :class:`~repro.cache.access.FetchCounters` field and on priced
  energy, bracketing any real run (the S008 sanitizer invariant).

Consumers: the ``repro verify`` certificate (per configuration, the
fixpoint summary and the bounds checked against the engine's measured
counters; :mod:`repro.verify.certify`), the ``A``-layer lint rules
(:mod:`repro.analysis.rules.absint_rules`), and the S008 sanitizer
invariant.  See ``docs/static_analysis.md``.
"""

from repro.analysis.absint.analysis import (
    CacheBehavior,
    LineSummary,
    absint_flow_graph,
    analyze_cache,
    behavior_for,
    block_lines,
)
from repro.analysis.absint.bounds import (
    BoundsViolation,
    CounterBounds,
    bounds_for_options,
    energy_bounds,
    footprint_bounds,
)
from repro.analysis.absint.lattice import (
    AbstractState,
    CacheUniverse,
    Classification,
)

__all__ = [
    "AbstractState",
    "BoundsViolation",
    "CacheBehavior",
    "CacheUniverse",
    "Classification",
    "CounterBounds",
    "LineSummary",
    "absint_flow_graph",
    "analyze_cache",
    "behavior_for",
    "block_lines",
    "bounds_for_options",
    "energy_bounds",
    "footprint_bounds",
]
