"""Cross-scheme property tests: invariants that must hold for any stream.

These drive every scheme with randomly generated (but structurally valid)
event streams and check the accounting identities the energy and timing
models rely on.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.engine.kernels import fast_counters
from repro.errors import SchemeError
from repro.schemes.baseline import BaselineScheme
from repro.schemes.filter_cache import FilterCacheScheme
from repro.schemes.way_memoization import WayMemoizationScheme
from repro.schemes.way_placement import WayPlacementScheme
from repro.schemes.way_prediction import WayPredictionScheme
from repro.trace.events import SEQUENTIAL_SLOT, LineEventTrace
from tests.scheme_helpers import (
    DIRECT_MAPPED,
    MIXED_CONFIGS,
    SPARSE_SWEEP,
    TINY_GEOMETRY,
    events_from,
    reference_counters,
)


@st.composite
def event_streams(draw):
    """Random event streams over a handful of lines, no adjacent repeats."""
    n = draw(st.integers(min_value=1, max_value=60))
    lines = draw(
        st.lists(st.integers(0, 40), min_size=n, max_size=n)
    )
    specs = []
    previous = None
    for index, line_number in enumerate(lines):
        if line_number == previous:
            line_number = (line_number + 1) % 41
        previous = line_number
        count = draw(st.integers(1, 4))
        slot = draw(st.sampled_from([SEQUENTIAL_SLOT, 0, 1, 2, 3]))
        specs.append((line_number * 16, count, slot))
    return specs


def make_all_schemes():
    return [
        BaselineScheme(TINY_GEOMETRY, page_size=16),
        WayPlacementScheme(TINY_GEOMETRY, wpa_size=256, page_size=16),
        WayPlacementScheme(TINY_GEOMETRY, wpa_size=64, page_size=16),
        WayMemoizationScheme(TINY_GEOMETRY, page_size=16),
        WayPredictionScheme(TINY_GEOMETRY, page_size=16),
        FilterCacheScheme(TINY_GEOMETRY, l0_size=64, page_size=16),
    ]


@given(event_streams())
@settings(max_examples=60, deadline=None)
def test_accounting_identities(specs):
    events = events_from(specs)
    total_fetches = sum(s[1] for s in specs)
    for scheme in make_all_schemes():
        counters = scheme.run(events)
        counters.validate()
        assert counters.fetches == total_fetches
        assert counters.line_events == len(specs)
        assert counters.fills >= counters.misses
        assert counters.wp_fills <= counters.fills
        # every line transition resolves exactly once (filter cache resolves
        # only its L0 misses against the L1)
        if isinstance(scheme, FilterCacheScheme):
            assert counters.hits + counters.misses == counters.l0_misses
        else:
            assert counters.hits + counters.misses == counters.line_events


@given(event_streams())
@settings(max_examples=40, deadline=None)
def test_baseline_and_memoization_agree_on_misses(specs):
    """Way-memoization never changes cache *contents*, only tag activity."""
    events = events_from(specs)
    base = BaselineScheme(TINY_GEOMETRY, page_size=16).run(events)
    memo = WayMemoizationScheme(TINY_GEOMETRY, page_size=16).run(events)
    assert base.misses == memo.misses
    assert base.hits == memo.hits
    assert base.evictions == memo.evictions


@given(event_streams())
@settings(max_examples=40, deadline=None)
def test_way_placement_invariant_holds_for_any_stream(specs):
    """A WPA line is only ever resident in its mandated way."""
    for wpa_size in (64, 128, 256):
        scheme = WayPlacementScheme(TINY_GEOMETRY, wpa_size=wpa_size, page_size=16)
        scheme.run(events_from(specs))
        geometry = scheme.geometry
        for set_index, way, tag in scheme.cache.resident_lines():
            address = geometry.reconstruct_address(tag, set_index)
            if address < wpa_size:
                assert way == geometry.mandated_way(address)
        scheme.cache.assert_no_duplicate_tags()


@given(event_streams())
@settings(max_examples=40, deadline=None)
def test_way_placement_precharge_bound_vs_baseline(specs):
    """Way placement beats baseline precharge up to misprediction overhead.

    Each hint false positive costs a corrective full search (`ways` extra
    precharges), so an adversarial stream that mispredicts on nearly every
    transition can precharge *more* than baseline — the unconditional
    "never more than baseline" claim only holds for streams with locality.
    The bound that holds for any stream is baseline + ways * false_positives.
    """
    events = events_from(specs)
    base = BaselineScheme(TINY_GEOMETRY, page_size=16).run(events)
    placed = WayPlacementScheme(
        TINY_GEOMETRY, wpa_size=256, page_size=16
    ).run(events)
    slack = TINY_GEOMETRY.ways * placed.hint_false_positives
    assert placed.ways_precharged <= base.ways_precharged + slack


@given(event_streams())
@settings(max_examples=40, deadline=None)
def test_memoization_links_never_fetch_wrong_line(specs):
    """Every link-followed transition must be a true hit of the right tag."""
    events = events_from(specs)
    scheme = WayMemoizationScheme(TINY_GEOMETRY, page_size=16)
    counters = scheme.run(events)
    # If a link ever fetched the wrong line, contents would diverge from
    # the baseline simulation of the same stream:
    reference = BaselineScheme(TINY_GEOMETRY, page_size=16).run(events)
    assert counters.misses == reference.misses


@given(event_streams())
@settings(max_examples=30, deadline=None)
def test_determinism_across_runs(specs):
    events = events_from(specs)
    for factory in (
        lambda: BaselineScheme(TINY_GEOMETRY, page_size=16),
        lambda: WayPlacementScheme(TINY_GEOMETRY, wpa_size=128, page_size=16),
        lambda: WayMemoizationScheme(TINY_GEOMETRY, page_size=16),
    ):
        first = factory().run(events)
        second = factory().run(events)
        assert first == second


# ---------------------------------------------------------------------------
# Vectorized kernels (repro.engine.kernels) against the reference schemes.
# The kernels promise *bit-identical* FetchCounters — every field, not just
# the energy-relevant ones — so these compare whole counter objects.
# ---------------------------------------------------------------------------

#: Geometries spanning set counts, associativities, and line sizes.
KERNEL_GEOMETRIES = [
    TINY_GEOMETRY,
    CacheGeometry(512, 8, 16),
    CacheGeometry(1024, 4, 32),
    CacheGeometry(2048, 32, 32),
    DIRECT_MAPPED,
]


def random_events(
    rng: np.random.Generator, n: int, num_lines: int, line_size: int
) -> LineEventTrace:
    """A seeded stream with locality (random walk over a small line pool)."""
    walk = np.cumsum(rng.integers(-3, 4, size=n)) % num_lines
    # collapse adjacent repeats, which LineEventTrace forbids
    walk[1:][walk[1:] == walk[:-1]] += 1
    walk %= num_lines
    keep = np.ones(n, dtype=bool)
    keep[1:] = walk[1:] != walk[:-1]
    lines = walk[keep]
    m = len(lines)
    return LineEventTrace(
        line_size=line_size,
        line_addrs=(lines * line_size).astype(np.int64),
        counts=rng.integers(1, 5, size=m).astype(np.int32),
        slots=rng.choice(
            np.asarray([SEQUENTIAL_SLOT, 0, 1, 2, 3], dtype=np.int16), size=m
        ),
    )


@pytest.mark.parametrize("geometry", KERNEL_GEOMETRIES)
@pytest.mark.parametrize("same_line_skip", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorized_baseline_bit_identical(geometry, same_line_skip, seed):
    rng = np.random.default_rng(seed)
    events = random_events(rng, 500, 3 * geometry.num_lines, geometry.line_size)
    reference = BaselineScheme(
        geometry, itlb_entries=4, page_size=256, same_line_skip=same_line_skip
    ).run(events)
    fast = fast_counters(
        "baseline",
        events,
        geometry,
        itlb_entries=4,
        page_size=256,
        same_line_skip=same_line_skip,
    )
    assert fast == reference


@pytest.mark.parametrize("geometry", KERNEL_GEOMETRIES)
@pytest.mark.parametrize("same_line_skip", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorized_way_placement_bit_identical(geometry, same_line_skip, seed):
    rng = np.random.default_rng(100 + seed)
    events = random_events(rng, 500, 3 * geometry.num_lines, geometry.line_size)
    # WPA sizes from "nothing" through "part of a way" to "several ways".
    way_size = geometry.size_bytes // geometry.ways
    for wpa_size in (0, 256, way_size, 2 * way_size):
        if wpa_size % 256:
            continue
        reference = WayPlacementScheme(
            geometry,
            wpa_size=wpa_size,
            itlb_entries=4,
            page_size=256,
            same_line_skip=same_line_skip,
        ).run(events)
        fast = fast_counters(
            "way-placement",
            events,
            geometry,
            wpa_size=wpa_size,
            itlb_entries=4,
            page_size=256,
            same_line_skip=same_line_skip,
        )
        assert fast == reference


@pytest.mark.parametrize("hint_initial", [False, True])
def test_vectorized_way_placement_hint_initial(hint_initial):
    rng = np.random.default_rng(7)
    events = random_events(rng, 200, 40, 16)
    reference = WayPlacementScheme(
        TINY_GEOMETRY, wpa_size=128, page_size=16, hint_initial=hint_initial
    ).run(events)
    fast = fast_counters(
        "way-placement",
        events,
        TINY_GEOMETRY,
        wpa_size=128,
        page_size=16,
        hint_initial=hint_initial,
    )
    assert fast == reference


@given(event_streams())
@settings(max_examples=60, deadline=None)
def test_vectorized_kernels_bit_identical_on_adversarial_streams(specs):
    """Hypothesis hunts for streams where the kernels diverge."""
    events = events_from(specs)
    base_ref = BaselineScheme(TINY_GEOMETRY, page_size=16).run(events)
    assert fast_counters("baseline", events, TINY_GEOMETRY, page_size=16) == base_ref
    for wpa_size in (0, 64, 128, 256):
        placed_ref = WayPlacementScheme(
            TINY_GEOMETRY, wpa_size=wpa_size, page_size=16
        ).run(events)
        fast = fast_counters(
            "way-placement", events, TINY_GEOMETRY, wpa_size=wpa_size, page_size=16
        )
        assert fast == placed_ref


def test_fast_counters_declines_unknown_schemes_and_options():
    events = events_from([(0, 1)])
    assert fast_counters("way-memoization", events, TINY_GEOMETRY) is None
    assert fast_counters("baseline", events, TINY_GEOMETRY, l0_size=64) is None
    assert (
        fast_counters("way-placement", events, TINY_GEOMETRY, adaptive=True) is None
    )


# ---------------------------------------------------------------------------
# The adversarial option grid (tests.scheme_helpers): every configuration's
# kernel against its reference scheme, field by field.
# ---------------------------------------------------------------------------

OPTION_GRID = tuple(MIXED_CONFIGS) + tuple(SPARSE_SWEEP)


def assert_kernels_match_reference(events, geometry, configs=OPTION_GRID):
    for scheme, options in configs:
        kernel = fast_counters(scheme, events, geometry, **options)
        reference = reference_counters(scheme, options, events, geometry)
        diverged = [
            field.name
            for field in dataclasses.fields(FetchCounters)
            if getattr(kernel, field.name) != getattr(reference, field.name)
        ]
        assert not diverged, f"{scheme} {options} diverges in {diverged}"


def seeded_stream(seed):
    """600 events over 120 lines with no adjacent repeats."""
    rng = random.Random(seed)
    specs = []
    previous = None
    for _ in range(600):
        line = rng.randrange(120)
        if line == previous:
            line = (line + 1) % 120
        previous = line
        specs.append(
            (line * 16, rng.randint(1, 8), rng.choice([SEQUENTIAL_SLOT, 0, 1, 2, 3]))
        )
    return events_from(specs)


@given(event_streams())
@settings(max_examples=60, deadline=None)
def test_option_grid_kernels_match_reference(specs):
    assert_kernels_match_reference(events_from(specs), TINY_GEOMETRY)


@given(event_streams())
@settings(max_examples=40, deadline=None)
def test_option_grid_kernels_match_reference_direct_mapped(specs):
    assert_kernels_match_reference(events_from(specs), DIRECT_MAPPED, MIXED_CONFIGS)


@given(event_streams())
@settings(max_examples=40, deadline=None)
def test_sparse_sweep_kernels_match_reference_direct_mapped(specs):
    # With one way per set every fill evicts, and the sweep's gaps and
    # out-of-extent thresholds leave some WPA sizes indistinguishable.
    assert_kernels_match_reference(events_from(specs), DIRECT_MAPPED, SPARSE_SWEEP)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("geometry", [TINY_GEOMETRY, DIRECT_MAPPED])
def test_option_grid_seeded_streams(seed, geometry):
    assert_kernels_match_reference(seeded_stream(seed), geometry)


def test_each_config_alone_on_a_short_stream():
    # A revisit, a fill into a second set and a far line: every config of
    # the grid, one at a time, on a stream small enough to trace by hand.
    events = events_from([(0, 1), (16, 2), (0, 1), (96, 3)])
    for config in OPTION_GRID:
        assert_kernels_match_reference(events, TINY_GEOMETRY, [config])


def test_option_grid_on_empty_trace():
    assert_kernels_match_reference(events_from([]), TINY_GEOMETRY)


def test_option_grid_on_empty_trace_direct_mapped():
    assert_kernels_match_reference(events_from([]), DIRECT_MAPPED)


def test_kernels_reject_nonzero_wpa_base():
    events = events_from([(0, 1)])
    with pytest.raises(SchemeError, match="beginning"):
        fast_counters(
            "way-placement",
            events,
            TINY_GEOMETRY,
            wpa_size=64,
            page_size=16,
            wpa_base=64,
        )


def test_kernels_reject_negative_wpa_size():
    events = events_from([(0, 1)])
    with pytest.raises(SchemeError):
        fast_counters("way-placement", events, TINY_GEOMETRY, wpa_size=-16, page_size=16)


def test_empty_trace_matches_reference():
    events = events_from([])
    assert fast_counters("baseline", events, TINY_GEOMETRY, page_size=16) == (
        BaselineScheme(TINY_GEOMETRY, page_size=16).run(events)
    )
    assert fast_counters(
        "way-placement", events, TINY_GEOMETRY, wpa_size=64, page_size=16
    ) == WayPlacementScheme(TINY_GEOMETRY, wpa_size=64, page_size=16).run(events)


@given(event_streams(), st.integers(min_value=1, max_value=13))
@settings(max_examples=30, deadline=None)
def test_segmented_feed_equals_single_run(specs, chunk):
    """Feeding a trace in segments must equal one-shot processing for every
    scheme — the invariant the adaptive-WPA controller relies on."""
    events = events_from(specs)
    for make in (
        lambda: BaselineScheme(TINY_GEOMETRY, page_size=16),
        lambda: WayPlacementScheme(TINY_GEOMETRY, wpa_size=128, page_size=16),
        lambda: WayMemoizationScheme(TINY_GEOMETRY, page_size=16),
        lambda: WayPredictionScheme(TINY_GEOMETRY, page_size=16),
        lambda: FilterCacheScheme(TINY_GEOMETRY, l0_size=64, page_size=16),
    ):
        whole = make()
        whole.run(events)
        segmented = make()
        for start in range(0, events.num_events, chunk):
            segmented.feed(
                events.segment(start, min(start + chunk, events.num_events))
            )
        assert whole.counters == segmented.counters
