"""Resilient experiment execution.

Supervised grids with engine fallback, an in-process rung for failed
workers, resume by running again, and a deterministic fault-injection
(chaos) harness.  See :mod:`repro.resilience.supervisor` for the recovery
ladder, the local worker pool and the cell reports a grid keeps in the
trace store until it completes, :mod:`repro.resilience.policy` for the
worker timeout and failure records, and :mod:`repro.resilience.chaos` for
fault injection.
"""

from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule, InjectedFault
from repro.resilience.policy import FailureReport
from repro.resilience.supervisor import GridSummary, run_cell, supervise_grid

__all__ = [
    "ChaosConfig",
    "ChaosRule",
    "FailureReport",
    "GridSummary",
    "InjectedFault",
    "chaos",
    "run_cell",
    "supervise_grid",
]
