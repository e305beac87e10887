"""Outside-in layer tracing for the end-to-end benchmark.

The library has no spans of its own yet, so this module records them from
the outside: it replaces the layers' public functions and methods with
wrappers that open a span around each call, at the names the callers look
them up (module attributes of :mod:`repro.experiments.runner`, and class
attributes for methods).  Spans are kept in memory and written out once by
the caller.  A layer's *self time* is its spans' duration minus the part
covered by their child spans, so the self times of all layers plus the
root span's self time add up to the root span's duration.

Only the process that installs the wrappers records spans: grid workers
forked by a parallel run inherit the wrappers, but their records die with
the worker, so their time shows up as the parent's ``resilience.run_grid``
self time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT_SPAN = "experiments"

#: Replay schemes whose ``Simulator.run_events`` spans are reported.
SCHEMES = ("baseline", "way-placement", "way-memoization")


class Tracer:
    """In-memory span recorder plus named counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self.counts: Counter = Counter()
        self.grids: List[Any] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Any,
        after: Optional[Callable[[str, tuple, dict, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is a span name, or a function of the call's ``(args,
        kwargs)`` returning one; ``after`` sees ``(name, args, kwargs,
        result)`` once the call returned, to update counts.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = original(*args, **kwargs)
            if after is not None:
                after(label, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (summed self seconds, calls)`` over finished spans."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for span in self.spans:
            entry = totals[span["name"]]
            entry[0] += span["end"] - span["start"] - child_time[span["id"]]
            entry[1] += 1
        return {name: (seconds, int(calls)) for name, (seconds, calls) in totals.items()}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the library."""
    from repro.engine.store import TraceStore
    from repro.experiments import runner as runner_module
    from repro.sim.simulator import Simulator
    from repro.trace.executor import CfgWalker

    counts = tracer.counts

    def count_walk(label: str, args: tuple, kwargs: dict, trace: Any) -> None:
        counts["trace.walk.instructions"] += trace.num_instructions

    def count_events(label: str, args: tuple, kwargs: dict, events: Any) -> None:
        counts["trace.line_events.events"] += events.num_events

    def count_load(label: str, args: tuple, kwargs: dict, artifact: Any) -> None:
        counts["engine.store.misses" if artifact is None else "engine.store.hits"] += 1

    def scheme_span(args: tuple, kwargs: dict) -> str:
        scheme = args[2] if len(args) > 2 else kwargs["scheme"]
        return f"sim.run_events.{scheme}"

    def count_replay(label: str, args: tuple, kwargs: dict, report: Any) -> None:
        events = args[1] if len(args) > 1 else kwargs["events"]
        counts[f"{label}.events"] += events.num_events

    def keep_grid(label: str, args: tuple, kwargs: dict, reports: Any) -> None:
        runner = args[0]
        tracer.grids.append((runner.last_grid, len(runner.last_failures)))

    for attr, name, after in (
        ("load_benchmark", "workloads.load_benchmark", None),
        ("profile_block_trace", "profiling.profile_block_trace", None),
        ("make_layout", "layout.make_layout", None),
        ("line_events_from_block_trace", "trace.line_events", count_events),
        ("dynamic_memory_fraction", "profiling.dynamic_memory_fraction", None),
        ("program_digest", "engine.store.digest", None),
        ("layout_digest", "engine.store.digest", None),
    ):
        tracer.wrap(runner_module, attr, name, after)
    tracer.wrap(CfgWalker, "walk", "trace.walk", count_walk)
    for kind in ("block_trace", "events", "profile"):
        tracer.wrap(TraceStore, f"load_{kind}", "engine.store.load", count_load)
        tracer.wrap(TraceStore, f"save_{kind}", "engine.store.save")
    tracer.wrap(Simulator, "run_events", scheme_span, count_replay)
    tracer.wrap(Simulator, "price", "sim.price")
    tracer.wrap(runner_module.ExperimentRunner, "run_grid", "resilience.run_grid", keep_grid)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced experiment.

    Everything but ``trace_overhead_pct``, which needs the untraced runs
    and is added by the parent.
    """
    times = tracer.self_times()
    counts = tracer.counts

    def seconds(name: str) -> float:
        return times.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return times.get(name, (0.0, 0))[1]

    metrics: Dict[str, float] = {}
    for name in (
        "workloads.load_benchmark",
        "trace.walk",
        "trace.line_events",
        "layout.make_layout",
    ):
        metrics[f"{name}.s"] = seconds(name)
        metrics[f"{name}.calls"] = calls(name)
    for name in (
        "profiling.profile_block_trace",
        "profiling.dynamic_memory_fraction",
        "engine.store.load",
        "engine.store.save",
        "engine.store.digest",
        "sim.price",
        "resilience.run_grid",
    ):
        metrics[f"{name}.s"] = seconds(name)
    metrics["trace.walk.minstr"] = counts["trace.walk.instructions"] / 1e6
    metrics["trace.line_events.events"] = counts["trace.line_events.events"]
    hits, misses = counts["engine.store.hits"], counts["engine.store.misses"]
    metrics["engine.store.hits"] = hits
    metrics["engine.store.misses"] = misses
    metrics["engine.store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for scheme in SCHEMES:
        name = f"sim.run_events.{scheme}"
        metrics[f"{name}.s"] = seconds(name)
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.mevents_per_s"] = (
            counts[f"{name}.events"] / seconds(name) / 1e6 if seconds(name) else 0.0
        )

    grid = Counter()
    peak_kb = 0
    for summary, failures in tracer.grids:
        grid["cells"] += summary.total
        grid["executed"] += len(summary.executed)
        grid["memoised"] += len(summary.memoised)
        grid["failed"] += len(summary.failed)
        grid["failures"] += failures
        grid["attached"] += summary.plane_attached
        grid["degraded"] += summary.plane_degraded
        peak_kb = max(peak_kb, summary.peak_worker_rss_kb)
    for key in ("cells", "executed", "memoised", "failed", "failures"):
        metrics[f"resilience.{key}"] = grid[key]
    metrics["engine.plane.attached"] = grid["attached"]
    metrics["engine.plane.degraded"] = grid["degraded"]
    metrics["resilience.worker_peak_pss_mb"] = peak_kb / 1024

    root = [span for span in tracer.spans if span["name"] == ROOT_SPAN]
    metrics["experiments.wall.s"] = sum(span["end"] - span["start"] for span in root)
    metrics["experiments.self.s"] = seconds(ROOT_SPAN)
    return metrics
