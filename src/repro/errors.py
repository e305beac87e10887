"""Exception hierarchy for the way-placement reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Subclasses mark
the subsystem that detected the problem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "EncodingError",
    "AssemblerError",
    "ProgramError",
    "LayoutError",
    "CacheConfigError",
    "TraceError",
    "ProfileError",
    "SchemeError",
    "EnergyModelError",
    "WorkloadError",
    "ExperimentError",
    "AnalysisError",
    "SanitizerError",
    "ResilienceError",
    "CellFailure",
    "RetriesExhausted",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class EncodingError(ReproError):
    """An instruction could not be encoded or decoded."""


class AssemblerError(ReproError):
    """Assembly source text was malformed."""


class ProgramError(ReproError):
    """A program, function, or CFG is structurally invalid."""


class LayoutError(ReproError):
    """A code layout is inconsistent (overlaps, misalignment, missing blocks)."""


class CacheConfigError(ReproError):
    """A cache or TLB geometry is invalid (non-power-of-two, too small, ...)."""


class TraceError(ReproError):
    """Trace generation failed (unreachable block, bad step budget, ...)."""


class ProfileError(ReproError):
    """Profile data is missing, malformed, or inconsistent with the program."""


class SchemeError(ReproError):
    """A fetch scheme was configured or driven incorrectly."""


class EnergyModelError(ReproError):
    """Energy-model parameters are invalid."""


class WorkloadError(ReproError):
    """A synthetic workload specification is invalid."""


class ExperimentError(ReproError):
    """An experiment grid or figure request is invalid."""


class AnalysisError(ReproError):
    """The static rule catalog was misused: a duplicate or unknown rule
    id, or a selector that matches no rule."""


class SanitizerError(ReproError):
    """The runtime sanitizer caught a model-invariant violation.

    The concrete :class:`~repro.verify.sanitizer.SanitizerViolation`
    records are attached as the ``violations`` attribute.
    """

    def __init__(self, message: str, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else []


class ResilienceError(ReproError):
    """Supervised execution was configured or driven incorrectly."""


class RetriesExhausted(ResilienceError):
    """One grid cell failed for good: a static configuration error, or a
    failure on the reference engine after its first attempt failed.

    Raised with the last underlying exception chained as ``__cause__``;
    the number of attempts made is attached as the ``attempts`` attribute.
    """

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class CellFailure(ResilienceError):
    """A supervised grid finished with unrecovered cell failures.

    Every completed cell's report was still adopted into the runner's memo
    before this was raised.  The structured
    :class:`~repro.resilience.policy.FailureReport` records (recovered and
    unrecovered) are attached as the ``failures`` attribute; the first
    underlying exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, failures=None):
        super().__init__(message)
        self.failures = list(failures) if failures is not None else []
