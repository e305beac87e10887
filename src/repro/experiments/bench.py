"""Bench snapshot regression gate: fail on engine speedup drops.

Compares a freshly generated snapshot (``scripts/bench_snapshot.py
--output bench_ci.json``) against the committed ``BENCH_engine.json``
baseline.  The guarded metrics are the vectorized kernels' speedups over
the reference schemes — ratios of two wall times measured in the same
process, so they are far more stable across runner hardware than the raw
walls:

* ``replay.baseline.vector_speedup`` — the baseline kernel vs
  :class:`~repro.schemes.baseline.BaselineScheme`;
* ``replay.way-placement.vector_speedup`` — the way-placement kernel vs
  :class:`~repro.schemes.way_placement.WayPlacementScheme`.

Both replay the kernel bench's own pinned trace, so a reduced
``REPRO_EVAL_INSTRUCTIONS`` budget leaves them unchanged.

A guarded speedup may drift or improve freely; dropping more than the
tolerance (default 20%) below the baseline fails the gate.  A metric
missing from the *current* snapshot also fails (a silently skipped bench
must not pass the gate); one missing from the *baseline* is reported and
skipped, so the gate can be introduced before the baseline carries every
metric.

The snapshot records more than the gate guards: ``store.load_events``
(warm store load vs re-deriving the same events) is asserted by its bench
but left out of :data:`GUARDED`, because its ratio varies between runs by
more than the tolerance.

Exposed to the CLI as ``repro bench compare``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import json

from repro.errors import ReproError

__all__ = [
    "DEFAULT_BASELINE",
    "DEFAULT_TOLERANCE",
    "GUARDED",
    "BenchComparison",
    "MetricVerdict",
    "compare_snapshots",
    "load_metrics",
]

#: Default checked-in baseline, at the repository root.
DEFAULT_BASELINE = Path(__file__).resolve().parents[3] / "BENCH_engine.json"

#: Allowed fractional speedup drop before the gate fails.
DEFAULT_TOLERANCE = 0.20

#: (metric name, ratio field) pairs the gate guards.
GUARDED: Tuple[Tuple[str, str], ...] = (
    ("replay.baseline", "vector_speedup"),
    ("replay.way-placement", "vector_speedup"),
)


def load_metrics(path: Path) -> Dict[str, Any]:
    """The ``metrics`` block of one snapshot file, strictly validated."""
    try:
        snapshot = json.loads(path.read_text())
    except OSError as error:
        raise ReproError(f"cannot read snapshot {path}: {error}")
    except ValueError as error:
        raise ReproError(f"snapshot {path} is not valid JSON: {error}")
    metrics = snapshot.get("metrics") if isinstance(snapshot, dict) else None
    if not isinstance(metrics, dict):
        raise ReproError(f"snapshot {path} has no 'metrics' block")
    return metrics


@dataclass(frozen=True)
class MetricVerdict:
    """The gate's decision on one guarded metric."""

    metric: str
    field: str
    measured: Optional[float]
    reference: Optional[float]
    floor: Optional[float]
    status: str  # "ok", "FAIL", or "SKIP"

    def render(self) -> str:
        name = f"{self.metric}.{self.field}"
        if self.status == "SKIP":
            return f"SKIP {name}: not in baseline"
        if self.measured is None:
            return f"FAIL {name}: missing from current snapshot"
        assert self.reference is not None and self.floor is not None
        return (
            f"{self.status:4} {name}: {self.measured:.2f}x vs baseline "
            f"{self.reference:.2f}x (floor {self.floor:.2f}x)"
        )


@dataclass(frozen=True)
class BenchComparison:
    """Every guarded metric's verdict plus the gate's overall outcome."""

    verdicts: Tuple[MetricVerdict, ...]
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [verdict.render() for verdict in self.verdicts]
        if self.failures:
            lines.append("")
            lines.append("bench regression gate FAILED:")
            lines.extend(f"  - {failure}" for failure in self.failures)
        else:
            lines.append("bench regression gate passed")
        return "\n".join(lines)


def compare_snapshots(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchComparison:
    """Apply the gate to two ``metrics`` blocks (see the module docstring)."""
    if not 0.0 <= tolerance < 1.0:
        raise ReproError(f"tolerance must be in [0, 1), got {tolerance}")
    verdicts: List[MetricVerdict] = []
    failures: List[str] = []
    for metric, field in GUARDED:
        name = f"{metric}.{field}"
        reference = baseline.get(metric, {}).get(field)
        if reference is None:
            verdicts.append(
                MetricVerdict(metric, field, None, None, None, "SKIP")
            )
            continue
        measured = current.get(metric, {}).get(field)
        if measured is None:
            verdicts.append(
                MetricVerdict(metric, field, None, float(reference), None, "FAIL")
            )
            failures.append(
                f"{name}: missing from the current snapshot "
                f"(baseline has {reference})"
            )
            continue
        floor = float(reference) * (1.0 - tolerance)
        failed = float(measured) < floor
        verdicts.append(
            MetricVerdict(
                metric,
                field,
                float(measured),
                float(reference),
                floor,
                "FAIL" if failed else "ok",
            )
        )
        if failed:
            failures.append(
                f"{name}: {measured:.2f}x is more than {tolerance:.0%} below "
                f"the baseline {reference:.2f}x"
            )
    return BenchComparison(tuple(verdicts), tuple(failures))
