"""Benches for the fast engine: kernel speedup, store loads, warm-cache startup.

Four acceptance properties of the engine live here:

* the vectorized kernels replay the 32KB/32-way baseline and way-placement
  configurations at least ~5x faster than the reference schemes (measured
  as events/sec on the same trace, same process; ``repro bench compare``
  guards both ratios);
* a warm store load of a line-event trace (mmap'd entry directory) is at
  least 50x faster than re-deriving the same events from the block trace;
* a parallel grid on a warm store is faster than on a cold one, with
  bit-identical reports;
* a second ``ExperimentRunner`` process with a warm persistent cache starts
  up much faster than a cold one because it performs no CFG walks at all.

Wall times are best-of-N (``$REPRO_BENCH_REPEATS``, default 3).  With
``$REPRO_BENCH_JSON`` set, the measured numbers are also recorded for
``scripts/bench_snapshot.py`` (they end up in ``BENCH_engine.json``).
"""

import gc
import os
import time

import pytest

from benchmarks.conftest import emit, record_metric, run_once
from repro.engine.grid import GridCell
from repro.engine.kernels import fast_counters
from repro.layout import original_layout
from repro.schemes.baseline import BaselineScheme
from repro.schemes.way_placement import WayPlacementScheme
from repro.sim.machine import XSCALE_BASELINE
from repro.trace.executor import CfgWalker
from repro.trace.fetch import line_events_from_block_trace
from repro.workloads.inputs import LARGE_INPUT, branch_models_for
from repro.workloads.mibench import load_benchmark

KB = 1024
BUDGET = 400_000


@pytest.fixture(scope="module")
def events():
    workload = load_benchmark("susan_c")
    models = branch_models_for(workload, LARGE_INPUT)
    trace = CfgWalker(workload.program, models, seed=2).walk(BUDGET)
    layout = original_layout(workload.program)
    return line_events_from_block_trace(trace, workload.program, layout, 32)


#: Wall times are best-of-N to keep the checked-in speedup claims from
#: being single-run noise; ``scripts/bench_snapshot.py`` sets the variable
#: (``--repeats``) and records N in the snapshot's environment block.
BENCH_REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))


def _time(function, repeats=None):
    repeats = BENCH_REPEATS if repeats is None else repeats
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.parametrize(
    "scheme,options",
    [
        ("baseline", {}),
        ("way-placement", {"wpa_size": 32 * KB}),
    ],
)
def test_bench_kernel_speedup(benchmark, events, scheme, options):
    geometry = XSCALE_BASELINE.icache
    scheme_cls = BaselineScheme if scheme == "baseline" else WayPlacementScheme

    def reference():
        return scheme_cls(geometry, **options).run(events)

    def kernel():
        return fast_counters(scheme, events, geometry, **options)

    # The kernels memoise nothing, so this call only checks equality and
    # every timed call below pays a grid cell's full cost.
    assert kernel() == reference()

    def interleaved():
        # Alternate the two sides, collecting garbage before each, so host
        # load shifts and collector pauses hit both alike.
        ref_best = fast_best = float("inf")
        for _ in range(BENCH_REPEATS):
            gc.collect()
            ref_best = min(ref_best, _time(reference, repeats=1)[1])
            gc.collect()
            fast_best = min(fast_best, _time(kernel, repeats=1)[1])
        return ref_best, fast_best

    ref_time, fast_time = run_once(benchmark, interleaved)

    speedup = ref_time / fast_time
    events_per_sec = events.num_events / fast_time
    emit(
        f"[engine] {scheme}: reference {events.num_events / ref_time:,.0f} ev/s, "
        f"vectorized {events_per_sec:,.0f} ev/s ({speedup:.1f}x)"
    )
    record_metric(
        f"replay.{scheme}",
        {
            "events": events.num_events,
            "reference_events_per_sec": round(events.num_events / ref_time),
            "vector_events_per_sec": round(events_per_sec),
            "vector_speedup": round(speedup, 2),
        },
    )
    assert speedup >= 5.0, f"vectorized {scheme} kernel only {speedup:.2f}x faster"


def test_bench_store_load_events(benchmark, tmp_path_factory):
    """Warm ``TraceStore.load_events`` vs re-deriving the same events.

    A store hit maps the entry's raw ``.npy`` members and hands back
    page-cache-backed views at a near-constant few file opens; a miss
    re-runs line-event expansion over the whole block trace.  Measured on
    the largest bundled workload trace the benches build (susan_c walked
    for 2M instructions): warm loads (page cache hot, best-of-N over a
    10-load inner loop) must clear 50x.  Recorded, not guarded by the
    compare gate: the ratio varies between runs by more than its
    tolerance.
    """
    import numpy as np

    from repro.engine.store import TraceStore

    workload = load_benchmark("susan_c")
    models = branch_models_for(workload, LARGE_INPUT)
    trace = CfgWalker(workload.program, models, seed=2).walk(5 * BUDGET)
    layout = original_layout(workload.program)

    def derive():
        return line_events_from_block_trace(trace, workload.program, layout, 32)

    events, derive_time = _time(derive)
    store = TraceStore(tmp_path_factory.mktemp("store-load"))
    key = "bench|events|susan_c"
    assert store.save_events(key, events) is not None

    def load():
        return store.load_events(key)

    _, cold = _time(load, repeats=1)

    def many():
        for _ in range(9):
            load()
        return load()

    loaded, warm10 = run_once(benchmark, lambda: _time(many))
    warm = warm10 / 10
    assert loaded.line_size == events.line_size
    for field in ("line_addrs", "counts", "slots"):
        assert np.array_equal(getattr(loaded, field), getattr(events, field))
    assert not loaded.line_addrs.flags.writeable

    speedup = derive_time / warm
    emit(
        f"[engine] store.load_events ({events.num_events:,} events): "
        f"re-derive {derive_time * 1000:.1f}ms, warm load {warm * 1000:.2f}ms "
        f"({speedup:.0f}x; cold load {cold * 1000:.2f}ms)"
    )
    record_metric(
        "store.load_events",
        {
            "events": events.num_events,
            "derive_ms": round(derive_time * 1000, 3),
            "cold_ms": round(cold * 1000, 3),
            "warm_ms": round(warm * 1000, 3),
            "warm_speedup": round(speedup, 2),
        },
    )
    assert speedup >= 50.0, (
        f"warm store load only {speedup:.1f}x faster than re-deriving the events"
    )


#: The multi-benchmark grid the cold/warm bench runs: 4 benchmarks x 4
#: configurations = 16 cells, one worker chunk per benchmark at jobs=4.
_GRID_CELLS = [
    cell
    for name in ("crc", "sha", "fft", "bitcount")
    for cell in (
        GridCell(name, "baseline"),
        GridCell(name, "way-placement", wpa_size=4 * KB),
        GridCell(name, "way-placement", wpa_size=8 * KB),
        GridCell(name, "way-placement", wpa_size=16 * KB),
    )
]


def test_bench_grid_cold_vs_warm(benchmark, tmp_path_factory):
    """16-cell parallel grid wall: cold store vs warm store.

    Recorded, not guarded: the cold wall is dominated by CFG walking and
    the warm one by process spin-up, both of which vary across runner
    hardware.  The load-bearing asserts are bit-identity between the runs
    and that the warm run is faster.
    """
    from repro.experiments.runner import ExperimentRunner

    cache = tmp_path_factory.mktemp("grid-cache")

    def grid():
        runner = ExperimentRunner(cache_dir=cache)
        return runner, runner.run_grid(_GRID_CELLS, jobs=4)

    start = time.perf_counter()
    cold_runner, cold_reports = grid()
    cold = time.perf_counter() - start

    (warm_runner, warm_reports), warm = run_once(
        benchmark, lambda: _time(grid, repeats=1)
    )
    for a, b in zip(cold_reports, warm_reports):
        assert a.counters == b.counters, "warm grid diverged from cold grid"
    summary = warm_runner.last_grid
    assert summary is not None

    emit(
        f"[engine] 16-cell grid: cold {cold:.2f}s, warm {warm:.2f}s "
        f"({cold / warm:.1f}x; peak worker footprint "
        f"{summary.peak_worker_rss_kb}KB)"
    )
    record_metric(
        "grid.cold_vs_warm",
        {
            "cells": len(_GRID_CELLS),
            "jobs": 4,
            "cold_wall_s": round(cold, 4),
            "warm_wall_s": round(warm, 4),
            "peak_worker_rss_kb": summary.peak_worker_rss_kb,
        },
    )
    assert warm < cold, "a warm grid should never be slower than a cold one"


def test_bench_warm_cache_startup(benchmark, tmp_path_factory):
    from repro.experiments.runner import ExperimentRunner

    cache = tmp_path_factory.mktemp("engine-cache")

    def startup():
        runner = ExperimentRunner(cache_dir=cache)
        runner.report("crc", "way-placement", wpa_size=32 * KB)
        runner.report("crc", "baseline")
        return runner

    start = time.perf_counter()
    cold_runner = startup()
    cold = time.perf_counter() - start
    assert cold_runner.store.misses > 0

    warm_runner, warm = run_once(benchmark, lambda: _time(startup, repeats=1))
    assert warm_runner.store.misses == 0, "warm cache still re-derived traces"
    emit(
        f"[engine] runner startup: cold {cold:.2f}s, warm {warm:.2f}s "
        f"({cold / warm:.1f}x)"
    )
    # The load-bearing assertion is misses == 0 above; wall-clock is noisy
    # on small benchmarks, so only guard against the cache *slowing* startup.
    assert warm < cold * 1.5
