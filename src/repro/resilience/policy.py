"""Resilience policy: worker timeout, resume, failure records.

A :class:`ResilienceConfig` describes the two settings of the supervised
grid runner (see :mod:`repro.resilience.supervisor`): how long a worker
may run before it is killed, and whether a run resumes from a checkpoint
journal.  Recovery itself needs no setting: a failed cell gets one more
attempt, on the reference engine, whenever :func:`is_retryable` says that
attempt can succeed, and a failed worker's unfinished cells run once in
the parent.

Every recovery — and every failure that exhausted the ladder — is recorded
as a structured :class:`FailureReport` so partial completions can explain
exactly what happened and what the supervisor did about it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import (
    CacheConfigError,
    EnergyModelError,
    ExperimentError,
    LayoutError,
    ProgramError,
    ResilienceError,
    SchemeError,
    WorkloadError,
)

__all__ = [
    "DEFAULT_RESILIENCE",
    "FailureReport",
    "ResilienceConfig",
    "cause_chain",
    "is_retryable",
    "render_failures",
]


#: Static configuration/model errors: no engine can change the outcome.
_NON_RETRYABLE = (
    CacheConfigError,
    EnergyModelError,
    ExperimentError,
    LayoutError,
    ProgramError,
    SchemeError,
    WorkloadError,
)


def is_retryable(error: BaseException) -> bool:
    """Can an attempt on the reference engine succeed where this one failed?

    Static configuration errors (bad geometry, unknown scheme, invalid
    layout) fail the same way on every engine, so they are fatal at once.
    Everything else — a :class:`~repro.errors.SanitizerError` from a fast
    kernel, I/O faults, injected chaos, plain bugs — gets the reference
    attempt.
    """
    return not isinstance(error, _NON_RETRYABLE)


def cause_chain(error: BaseException, limit: int = 8) -> Tuple[str, ...]:
    """The ``raise ... from ...`` chain as compact human-readable strings."""
    chain: List[str] = []
    seen: set = set()
    current: Optional[BaseException] = error
    while current is not None and id(current) not in seen and len(chain) < limit:
        seen.add(id(current))
        chain.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or current.__context__
    return tuple(chain)


@dataclass(frozen=True)
class ResilienceConfig:
    """How supervised execution reacts to failure (see module docstring).

    ``timeout_s`` is the wall-clock budget of one worker (``None``
    disables timeouts); a worker past it is killed and its unfinished
    cells run in the parent.  ``resume`` makes
    :meth:`~repro.experiments.runner.ExperimentRunner.run_grid` reload the
    checkpoint journal of an interrupted identical grid and re-execute only
    the missing cells.
    """

    timeout_s: Optional[float] = None
    resume: bool = False

    def validate(self) -> "ResilienceConfig":
        """Raise :class:`~repro.errors.ResilienceError` on invalid settings."""
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ResilienceError(f"timeout_s must be > 0, got {self.timeout_s}")
        return self


#: What ``run_grid`` uses when the runner carries no explicit config.
DEFAULT_RESILIENCE = ResilienceConfig()


@dataclass(frozen=True)
class FailureReport:
    """One supervised incident: what failed, how often, and the recovery.

    ``site`` is where the incident happened (``"cell"`` for one simulation,
    ``"worker"`` for a whole benchmark chunk's process).  ``cell`` labels
    it: a cell's label names benchmark, scheme, WPA and cache geometry
    (``crc:way-placement:wpa16384:icache=16384/8/32``), a chunk's its
    benchmark.  ``causes`` holds the exception cause chains of every
    failed attempt, oldest first.  ``recovery`` names the ladder rung that
    finally succeeded — ``engine-fallback`` or ``in-process`` — or
    ``none`` when the incident was not recovered.
    """

    site: str
    benchmark: str
    cell: str
    attempts: int
    causes: Tuple[str, ...] = ()
    recovery: str = "none"
    recovered: bool = False

    def describe(self) -> str:
        outcome = (
            f"recovered via {self.recovery}"
            if self.recovered
            else "NOT recovered"
        )
        last_cause = self.causes[-1] if self.causes else "unknown cause"
        return (
            f"[{self.site}] {self.cell}: {outcome} after "
            f"{self.attempts} attempt(s); last cause: {last_cause}"
        )


def render_failures(failures: List[FailureReport]) -> str:
    """Multi-line summary of every incident, for stderr on partial runs."""
    lines = [failure.describe() for failure in failures]
    recovered = sum(1 for failure in failures if failure.recovered)
    lines.append(
        f"{len(failures)} incident(s): {recovered} recovered, "
        f"{len(failures) - recovered} fatal"
    )
    return "\n".join(lines)
