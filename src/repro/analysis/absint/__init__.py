"""repro.analysis.absint — static counter bounds from a trace footprint.

:mod:`~repro.analysis.absint.bounds` derives, without replaying a single
event, lower/upper bounds on every
:class:`~repro.cache.access.FetchCounters` field of a baseline or
way-placement replay and on its priced energy.  Its consumer is the S008
sanitizer invariant (``repro.verify.sanitizer.check_static_bounds``),
which asserts the bracket on every sanitized run.  See
``docs/verification.md``.
"""

from repro.analysis.absint.bounds import (
    BoundsViolation,
    CounterBounds,
    bounds_for_options,
    energy_bounds,
    footprint_bounds,
)

__all__ = [
    "BoundsViolation",
    "CounterBounds",
    "bounds_for_options",
    "energy_bounds",
    "footprint_bounds",
]
