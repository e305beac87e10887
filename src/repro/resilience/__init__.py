"""Resilient experiment execution.

Supervised grids with engine fallback, worker replacement,
checkpoint–resume, and a deterministic fault-injection (chaos) harness.  See
:mod:`repro.resilience.supervisor` for the recovery ladder and the local
worker pool, :mod:`repro.resilience.policy` for configuration and failure
records, :mod:`repro.resilience.journal` for checkpoint–resume, and
:mod:`repro.resilience.chaos` for fault injection.
"""

from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule, InjectedFault
from repro.resilience.journal import ResumeJournal, cell_content_key, grid_digest
from repro.resilience.policy import (
    DEFAULT_RESILIENCE,
    FailureReport,
    ResilienceConfig,
)
from repro.resilience.supervisor import GridSummary, run_cell, supervise_grid

__all__ = [
    "ChaosConfig",
    "ChaosRule",
    "DEFAULT_RESILIENCE",
    "FailureReport",
    "GridSummary",
    "InjectedFault",
    "ResilienceConfig",
    "ResumeJournal",
    "cell_content_key",
    "chaos",
    "grid_digest",
    "run_cell",
    "supervise_grid",
]
