"""Dataflow verifier and simulation sanitizer (see docs/verification.md).

Two halves:

* the **static verifier** — whole-program dataflow analyses
  (:mod:`repro.verify.dataflow`), the symbolic WPA placement proof
  (:mod:`repro.verify.wpa_proof`), and the ``V###`` diagnostic rules
  (:mod:`repro.verify.rules`) that surface them through the standard
  :mod:`repro.analysis` registry;
* the **runtime sanitizer** (:mod:`repro.verify.sanitizer`) — ``S###``
  invariant checks over live schemes and vectorized kernel output.

Workload certification (:mod:`repro.verify.certify`, the ``repro
verify`` subcommand) is imported lazily by its callers because it pulls
in the experiment pipeline.
"""

from __future__ import annotations

from repro.verify import rules  # noqa: F401  (registers the V rules)
from repro.verify.dataflow import (
    BrokenFallthrough,
    FlowGraph,
    FlowImbalance,
    IllegalEdge,
    broken_fallthroughs,
    build_flow_graph,
    dominators_of,
    entry_block_uid,
    flow_imbalances,
    illegal_edges,
    immediate_dominators,
    reverse_postorder,
)
from repro.verify.sanitizer import (
    SANITIZER_INVARIANTS,
    SanitizerHook,
    SanitizerViolation,
    check_counters,
    check_differential,
    check_energy,
    check_hint_inert,
    check_scheme_state,
    check_wayhint,
    raise_if_violations,
    sanitize_counters,
    sanitize_events,
)
from repro.verify.wpa_proof import WpaProof, prove_wpa_placement

__all__ = [
    "BrokenFallthrough",
    "FlowGraph",
    "FlowImbalance",
    "IllegalEdge",
    "SANITIZER_INVARIANTS",
    "SanitizerHook",
    "SanitizerViolation",
    "WpaProof",
    "broken_fallthroughs",
    "build_flow_graph",
    "check_counters",
    "check_differential",
    "check_energy",
    "check_hint_inert",
    "check_scheme_state",
    "check_wayhint",
    "dominators_of",
    "entry_block_uid",
    "flow_imbalances",
    "illegal_edges",
    "immediate_dominators",
    "prove_wpa_placement",
    "raise_if_violations",
    "reverse_postorder",
    "sanitize_counters",
    "sanitize_events",
]
