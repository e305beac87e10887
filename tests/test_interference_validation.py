"""Certificate validation across every bundled workload.

The load-bearing claim of the interference analysis: a cache set the
static certificate calls conflict-free must replay **zero** conflict
misses on the real evaluation trace — on the paper's baseline geometry
and on a deliberately starved 2KB 2-way geometry where conflicts
actually happen.  The replay itself is held against the engine kernels
(total misses must agree exactly), so the decomposition is anchored to
the same counters the figures are built from.

Budgets match the CI verify step (20k eval / 8k profile), so the
whole sweep stays inside unit-test time.
"""

from __future__ import annotations

import pytest

from repro import ExperimentRunner
from repro.analysis.context import GeometrySpec, LayoutView, ProgramView
from repro.analysis.interference.graph import build_interference_graph
from repro.analysis.interference.replay import (
    conflict_free_violations,
    conflict_replay,
    trace_certified_sets,
)
from repro.cache.geometry import CacheGeometry
from repro.engine.kernels import fast_counters
from repro.layout.placement import LayoutPolicy
from repro.sim.machine import XSCALE_BASELINE
from repro.utils.bitops import align_up
from repro.workloads import benchmark_names

#: Undersized geometry: 2KB, 2-way, 32B lines — 32 sets of 2 ways, so
#: most workloads overflow sets and real conflict misses appear.
PRESSURE = CacheGeometry(2 * 1024, 2, 32)


@pytest.fixture(scope="module")
def interference_runner():
    return ExperimentRunner(eval_instructions=20_000, profile_instructions=8_000)


def _configs(layout):
    """(geometry, wpa_size) pairs to validate one workload under."""
    machine = XSCALE_BASELINE
    fitted = min(
        machine.icache.size_bytes,
        align_up(layout.end_address, machine.page_size),
    )
    return [
        (machine.icache, 0),
        (machine.icache, fitted),
        (PRESSURE, 0),
        (PRESSURE, 1024),
    ]


@pytest.mark.parametrize("benchmark_name", benchmark_names())
def test_certified_sets_replay_conflict_free(benchmark_name, interference_runner):
    runner = interference_runner
    layout = runner.layout(benchmark_name, LayoutPolicy.WAY_PLACEMENT)
    view = ProgramView.from_program(runner.workload(benchmark_name).program)
    layout_view = LayoutView.from_layout(layout)
    for geometry, wpa_size in _configs(layout):
        events = runner.events(
            benchmark_name, LayoutPolicy.WAY_PLACEMENT, geometry.line_size
        )
        spec = GeometrySpec.from_geometry(geometry)
        replay = conflict_replay(events, spec, wpa_size)

        # The decomposition is anchored to the engine's own miss counter.
        if wpa_size:
            counters = fast_counters(
                "way-placement",
                events,
                geometry,
                wpa_size=wpa_size,
                page_size=XSCALE_BASELINE.page_size,
            )
        else:
            counters = fast_counters(
                "baseline", events, geometry, page_size=XSCALE_BASELINE.page_size
            )
        assert counters is not None
        assert replay.total_misses == counters.misses, (benchmark_name, wpa_size)

        # Trace-level certificates hold on the trace itself.
        certified = trace_certified_sets(events, spec, wpa_size)
        assert conflict_free_violations(replay, certified) == {}, (
            benchmark_name,
            geometry,
            wpa_size,
        )

        # Layout-level certificates are weaker (they see every placed
        # line, not just the touched ones) but must also replay clean.
        graph = build_interference_graph(view, layout_view, spec, wpa_size)
        layout_certified = graph.conflict_free_sets()
        # Monotonicity: certifying the full placed footprint implies the
        # trace-footprint certificate on every set the trace touches.
        touched = {entry.set_index for entry in replay.sets}
        assert set(layout_certified) & touched <= set(certified)
        assert conflict_free_violations(replay, layout_certified) == {}, (
            benchmark_name,
            geometry,
            wpa_size,
        )


def test_pressure_geometry_actually_conflicts(interference_runner):
    """The starved geometry is a real test: at least one workload must
    replay conflict misses there, or the suite proves nothing."""
    runner = interference_runner
    spec = GeometrySpec.from_geometry(PRESSURE)
    total = 0
    for benchmark in benchmark_names():
        events = runner.events(
            benchmark, LayoutPolicy.WAY_PLACEMENT, PRESSURE.line_size
        )
        total += conflict_replay(events, spec).total_conflict_misses
    assert total > 0
