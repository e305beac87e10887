"""repro.analysis.interference — predictive conflict analysis.

Trace-free temporal interference analysis over the ICFG: a weighted
conflict graph over cache lines (loop-nest-scaled pair weights, per-set
pressure, sound conflict-free certificates) and a reference conflict
replay that decomposes misses into cold + conflict per set.

Consumers: the ``repro verify`` certificate (per configuration, the
graph summary and the replay checked against the engine's measured
misses; :mod:`repro.verify.certify`), the ``I`` lint rule layer
(:mod:`repro.analysis.rules.interference_rules`), and the S009
sanitizer invariant.  See ``docs/static_analysis.md``.
"""

from repro.analysis.interference.graph import (
    BASE,
    MAX_LOOP_DEPTH,
    InterferenceEdge,
    InterferenceGraph,
    LoopComponent,
    LoopNest,
    SetPressure,
    build_interference_graph,
    build_loop_nest,
    certify_conflict_free,
    graph_for,
    loop_nest_for,
)
from repro.analysis.interference.replay import (
    ConflictReplay,
    SetConflict,
    conflict_free_violations,
    conflict_replay,
    trace_certified_sets,
)

__all__ = [
    "BASE",
    "MAX_LOOP_DEPTH",
    "ConflictReplay",
    "InterferenceEdge",
    "InterferenceGraph",
    "LoopComponent",
    "LoopNest",
    "SetConflict",
    "SetPressure",
    "build_interference_graph",
    "build_loop_nest",
    "certify_conflict_free",
    "conflict_free_violations",
    "conflict_replay",
    "graph_for",
    "loop_nest_for",
    "trace_certified_sets",
]
