"""Read-only trace discipline: no engine tier mutates its input arrays.

Trace arrays arrive shared — mmap'd store entries
(:mod:`repro.trace.io`) — so every engine tier must treat them as
immutable inputs.  Replaying on arrays with the ``writeable`` flag
dropped turns any accidental in-place mutation into a hard
``ValueError``; equality against the writable replay pins bit-identical
results on top.  Both tiers are covered: the reference schemes and the
vectorized per-cell kernels, the latter at the tiny and the direct-mapped
geometry.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine.kernels import fast_counters
from repro.layout import original_layout
from repro.schemes.baseline import BaselineScheme
from repro.schemes.way_placement import WayPlacementScheme
from repro.trace.events import SEQUENTIAL_SLOT, LineEventTrace
from repro.trace.executor import BlockTrace, CfgWalker
from repro.trace.fetch import line_events_from_block_trace
from tests.scheme_helpers import DIRECT_MAPPED, TINY_GEOMETRY, events_from

#: Baseline and a WPA sweep together, exercising both kernels.
CONFIGS = [
    ("baseline", {"page_size": 16}),
    ("way-placement", {"wpa_size": 0, "page_size": 16}),
    ("way-placement", {"wpa_size": 64, "page_size": 16}),
    ("way-placement", {"wpa_size": 256, "page_size": 16}),
]


def _frozen_array(array: np.ndarray) -> np.ndarray:
    copy = np.array(array, copy=True)
    copy.setflags(write=False)
    return copy


def frozen_events(events: LineEventTrace) -> LineEventTrace:
    return LineEventTrace(
        line_size=events.line_size,
        line_addrs=_frozen_array(events.line_addrs),
        counts=_frozen_array(events.counts),
        slots=_frozen_array(events.slots),
    )


@pytest.fixture(scope="module")
def events() -> LineEventTrace:
    """A seeded 600-event stream with mixed counts and slot hints."""
    rng = random.Random(7)
    specs = []
    for _ in range(600):
        line = rng.randrange(120) * 16
        count = rng.randrange(1, 5)
        slot = rng.randrange(TINY_GEOMETRY.ways) if rng.random() < 0.3 else (
            SEQUENTIAL_SLOT
        )
        specs.append((line, count, slot))
    return events_from(specs)


def test_reference_schemes_accept_frozen_traces(events):
    frozen = frozen_events(events)
    for make_scheme in (
        lambda: BaselineScheme(TINY_GEOMETRY, page_size=16),
        lambda: WayPlacementScheme(TINY_GEOMETRY, wpa_size=64, page_size=16),
    ):
        assert make_scheme().run(frozen) == make_scheme().run(events)


def assert_kernels_accept_frozen(events, geometry):
    frozen = frozen_events(events)
    for scheme, options in CONFIGS:
        want = fast_counters(scheme, events, geometry, **options)
        got = fast_counters(scheme, frozen, geometry, **options)
        assert got == want, f"frozen replay diverged for {scheme} {options}"


def test_fast_kernels_accept_frozen_traces(events):
    assert_kernels_accept_frozen(events, TINY_GEOMETRY)


def test_fast_kernels_accept_frozen_direct_mapped_traces(events):
    # One way per set: every miss evicts, and mandated fills collide.
    assert_kernels_accept_frozen(events, DIRECT_MAPPED)


def test_line_event_derivation_accepts_frozen_block_traces(
    toy_program, toy_models
):
    """The trace->events pipeline itself never writes into ``uids``."""
    trace = CfgWalker(toy_program, toy_models, seed=0).walk(800)
    frozen = BlockTrace(
        program_name=trace.program_name,
        uids=_frozen_array(trace.uids),
        num_instructions=trace.num_instructions,
        num_program_runs=trace.num_program_runs,
    )
    layout = original_layout(toy_program)
    want = line_events_from_block_trace(trace, toy_program, layout, 32)
    got = line_events_from_block_trace(frozen, toy_program, layout, 32)
    assert got.line_size == want.line_size
    assert np.array_equal(got.line_addrs, want.line_addrs)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.slots, want.slots)
