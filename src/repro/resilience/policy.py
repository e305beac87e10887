"""Resilience policy: retry/backoff/timeout settings and failure records.

A :class:`ResilienceConfig` describes how the supervised grid runner (see
:mod:`repro.resilience.supervisor`) reacts to failure: how often a cell or
a worker chunk is retried, how long to back off between attempts (with
deterministic, seedable jitter), how long a worker chunk may run before it
is killed, whether the vectorized engine may degrade to the reference
schemes, and whether a run resumes from a checkpoint journal.

Every recovery — and every failure that exhausted its budget — is recorded
as a structured :class:`FailureReport` so partial completions can explain
exactly what happened and what the supervisor did about it.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.errors import (
    AnalysisError,
    CacheConfigError,
    EnergyModelError,
    ExperimentError,
    LayoutError,
    ProgramError,
    ResilienceError,
    SanitizerError,
    SchemeError,
    WorkloadError,
)

__all__ = [
    "DEFAULT_RESILIENCE",
    "FailureReport",
    "FallbackPolicy",
    "ResilienceConfig",
    "cause_chain",
    "is_retryable",
    "render_failures",
]


class FallbackPolicy(enum.Enum):
    """What the supervisor may degrade to when the fast path fails."""

    #: Never change engines; exhaust retries and give up.
    NONE = "none"
    #: Re-run a failing cell on the pure-Python reference schemes (the
    #: engines are bit-identical, so results do not change).
    REFERENCE = "reference"


#: Static configuration/model errors: retrying cannot change the outcome.
_NON_RETRYABLE = (
    AnalysisError,
    CacheConfigError,
    EnergyModelError,
    ExperimentError,
    LayoutError,
    ProgramError,
    SchemeError,
    WorkloadError,
)


def is_retryable(error: BaseException) -> bool:
    """Can a fresh attempt plausibly succeed where this one failed?

    Static configuration errors (bad geometry, unknown scheme, strict
    pre-flight diagnostics) are deterministic and never retried.  A
    :class:`~repro.errors.SanitizerError` is deterministic *per engine*,
    so it is not retried either — it triggers the engine fallback instead.
    Everything else (I/O faults, killed workers, injected chaos, plain
    bugs) gets its retry budget.
    """
    if isinstance(error, SanitizerError):
        return False
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

    ``retries`` bounds *extra* attempts: a cell (and, in parallel grids, a
    worker chunk) runs at most ``retries + 1`` times before the next rung
    of the recovery ladder.  ``timeout_s`` is the wall-clock budget of one
    worker chunk attempt (``None`` disables timeouts).  ``resume`` makes
    :meth:`~repro.experiments.runner.ExperimentRunner.run_grid` reload the
    checkpoint journal of an interrupted identical grid and re-execute only
    the missing cells.
    """

    retries: int = 2
    backoff_s: float = 0.05
    jitter: float = 0.5
    timeout_s: Optional[float] = None
    fallback: FallbackPolicy = FallbackPolicy.REFERENCE
    resume: bool = False
    seed: int = 0

    def validate(self) -> "ResilienceConfig":
        """Raise :class:`~repro.errors.ResilienceError` on invalid settings."""
        if self.retries < 0:
            raise ResilienceError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ResilienceError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.jitter < 0:
            raise ResilienceError(f"jitter must be >= 0, got {self.jitter}")
        if self.timeout_s is not None and self.timeout_s < 0:
            raise ResilienceError(f"timeout_s must be >= 0, got {self.timeout_s}")
        if not isinstance(self.fallback, FallbackPolicy):
            raise ResilienceError(f"unknown fallback policy {self.fallback!r}")
        return self

    def backoff_delay(self, attempt: int, token: str) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based) of ``token``.

        Exponential in the attempt number with deterministic jitter: the
        jitter factor is derived from ``(seed, token, attempt)`` alone, so
        a re-run of the same grid backs off identically regardless of
        scheduling order.
        """
        if self.backoff_s <= 0:
            return 0.0
        base = self.backoff_s * (2.0**attempt)
        if self.jitter <= 0:
            return base
        digest = hashlib.sha256(
            f"{self.seed}|{token}|{attempt}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * unit)

    def with_fallback(self, name: str) -> "ResilienceConfig":
        """A copy with the fallback policy parsed from its CLI spelling."""
        try:
            policy = FallbackPolicy(name)
        except ValueError:
            choices = ", ".join(p.value for p in FallbackPolicy)
            raise ResilienceError(
                f"unknown fallback policy {name!r}; choose from {choices}"
            ) from None
        return replace(self, fallback=policy)


#: What ``run_grid`` uses when the runner carries no explicit config.
DEFAULT_RESILIENCE = ResilienceConfig()


@dataclass(frozen=True)
class FailureReport:
    """One supervised incident: what failed, how often, and the recovery.

    ``site`` is where the incident happened (``"cell"`` for one simulation,
    ``"worker"`` for a whole benchmark chunk's process, ``"family"`` for a
    family replay).  ``causes`` holds the exception cause chains of every
    failed attempt, oldest first.  ``recovery`` names the ladder rung that
    finally succeeded — ``retry``, ``engine-fallback``, ``fresh-worker``,
    ``in-process``, or ``per-cell`` for a failed family — or ``none`` when
    the incident was not recovered.
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
