"""Benches for the fast engine: kernel speedup, family replay, warm-cache startup.

Six acceptance properties of the engine live here:

* the vectorized kernels replay the 32KB/32-way way-placement configuration
  at least ~5x faster than the reference schemes (measured as events/sec on
  the same trace, same process);
* ``run_grid`` replays a 16-point WPA sweep as one family at least 3x
  faster than a per-cell ``report`` loop over the same cells;
* family replay of a 256-point WPA sweep is recorded against one
  per-config kernel call per member (adjacent configs share state, so a
  dense sweep costs little more than one replay);
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
from repro.engine.family import BatchMember, family_counters
from repro.engine.grid import GridCell
from repro.engine.kernels import fast_counters
from repro.layout.placement import LayoutPolicy
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
    if scheme == "baseline":
        reference = BaselineScheme(geometry, **options)
    else:
        reference = WayPlacementScheme(geometry, **options)

    # Warm the per-trace array memo so the bench measures steady-state
    # replay, not the one-off geometry decomposition.
    fast_counters(scheme, events, geometry, **options)

    ref_counters, ref_time = _time(lambda: type(reference)(geometry, **options).run(events))
    fast, fast_time = run_once(
        benchmark, lambda: _time(lambda: fast_counters(scheme, events, geometry, **options))
    )
    assert fast == ref_counters

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


def test_bench_family_sweep_16(benchmark, tmp_path_factory):
    """A 16-point WPA sweep: ``run_grid`` family replay vs a per-cell loop.

    Runner-level on purpose: both sides price and memoise every cell, so
    the ratio is what a grid gains from one trace traversal per family
    instead of one replay per cell.
    """
    from repro.experiments.runner import ExperimentRunner

    cache = tmp_path_factory.mktemp("family-cache")
    cells = [
        GridCell("susan_c", "way-placement", wpa_size=point * KB)
        for point in range(1, 17)
    ]
    runner = ExperimentRunner(cache_dir=cache)
    # Warm the trace pipeline so the timing isolates replay, which is what
    # the two sides differ in; each round re-simulates every cell.
    runner.events("susan_c", LayoutPolicy.WAY_PLACEMENT, 32)

    def per_cell():
        runner._reports.clear()
        return [runner.report(**cell.report_kwargs()) for cell in cells]

    def family():
        runner._reports.clear()
        return runner.run_grid(cells)

    per_cell()
    family()
    per_cell_reports, per_cell_time = _time(per_cell)
    family_reports, family_time = run_once(benchmark, lambda: _time(family))
    assert runner.last_grid.families == 1
    for cell, family_report, per_cell_report in zip(
        cells, family_reports, per_cell_reports
    ):
        assert family_report.counters == per_cell_report.counters, (
            f"family counters diverge for {cell}"
        )

    speedup = per_cell_time / family_time
    emit(
        f"[engine] 16-point WPA sweep: per-cell {per_cell_time * 1000:.1f}ms, "
        f"family {family_time * 1000:.1f}ms ({speedup:.1f}x)"
    )
    record_metric(
        "grid.wpa_sweep_16",
        {
            "cells": len(cells),
            "per_cell_wall_s": round(per_cell_time, 4),
            "family_wall_s": round(family_time, 4),
            "family_speedup": round(speedup, 2),
        },
    )
    assert speedup >= 3.0, (
        f"family sweep took {family_time * 1000:.1f}ms, more than 1/3 of the "
        f"per-cell sweep ({per_cell_time * 1000:.1f}ms)"
    )


def test_bench_family_sweep_256(benchmark, events):
    """A 256-point WPA sweep: one family traversal vs per-member kernels.

    Kernel-level on purpose: pricing and memoisation cost the same per
    cell on both sides, so timing the counters isolates what family replay
    saves.  Recorded and guarded by the compare gate, not asserted here.
    """
    geometry = XSCALE_BASELINE.icache
    members = [
        BatchMember("way-placement", {"wpa_size": point * KB})
        for point in range(1, 257)
    ]

    def per_member():
        return [
            fast_counters(member.scheme, events, geometry, **dict(member.options))
            for member in members
        ]

    def family():
        return family_counters(events, geometry, members)

    # Warm the per-trace memos (geometry decomposition, per-WPA flags,
    # sorted sweep aggregates) so the bench measures steady-state replay.
    per_member_results = per_member()
    family_results = family()
    assert family_results == per_member_results, "family counters diverge"

    def interleaved():
        # Alternate the two sides so host load shifts hit both alike.
        per_member_best = family_best = float("inf")
        for _ in range(BENCH_REPEATS):
            gc.collect()
            per_member_best = min(per_member_best, _time(per_member, repeats=1)[1])
            gc.collect()
            family_best = min(family_best, _time(family, repeats=1)[1])
        return per_member_best, family_best

    per_member_time, family_time = run_once(benchmark, interleaved)

    speedup = per_member_time / family_time
    emit(
        f"[engine] 256-point WPA sweep: per-member kernels "
        f"{per_member_time * 1000:.1f}ms, family {family_time * 1000:.1f}ms "
        f"({speedup:.1f}x)"
    )
    record_metric(
        "grid.wpa_sweep_256",
        {
            "cells": len(members),
            "per_member_wall_s": round(per_member_time, 4),
            "family_wall_s": round(family_time, 4),
            "family_speedup": round(speedup, 2),
        },
    )


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
