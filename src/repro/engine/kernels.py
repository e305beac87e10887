"""Vectorized replay kernels, counter-for-counter identical to the schemes.

The reference implementations in :mod:`repro.schemes` are the oracle: they
model every component as an object and pay Python dispatch on every event.
These kernels compute everything that does *not* depend on cache contents —
fetch totals, search/precharge counts, way-hint outcomes, same-line
bookkeeping — as NumPy reductions over the per-trace arrays of
:mod:`repro.engine.arrays`, leaving one tight loop for the sequential
cache state.  That loop keys residency by line address: one dict maps each
resident line to its way, so a hit costs a single lookup, and the set
index (and, for way-placement, the mandated way) is derived only on a miss.
It relies on the addresses being line-aligned, as
:class:`~repro.trace.events.LineEventTrace` documents.

Two properties are load-bearing and enforced by the equivalence suite:

* **Bit-identical counters.**  Every :class:`FetchCounters` field matches
  the reference scheme exactly, so energy reports are identical whichever
  path ran.
* **Exact I-TLB modelling.**  Consecutive events on the same page are
  guaranteed TLB hits, so the round-robin TLB is simulated only at page
  *changes* — far fewer than events — with the same miss count as probing
  every event.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.errors import CacheConfigError, SchemeError
from repro.engine.arrays import itlb_misses, way_hints, wpa_flags
from repro.trace.events import LineEventTrace
from repro.utils.bitops import log2_exact, mask

__all__ = [
    "FAST_SCHEMES",
    "baseline_counters",
    "fast_counters",
    "way_placement_counters",
]

#: Schemes with a vectorized fast path.
FAST_SCHEMES = frozenset({"baseline", "way-placement"})

_BASELINE_OPTIONS = frozenset({"itlb_entries", "page_size", "same_line_skip"})
_WAY_PLACEMENT_OPTIONS = frozenset(
    {"wpa_size", "itlb_entries", "page_size", "same_line_skip", "wpa_base", "hint_initial"}
)


def _check_stream(events: LineEventTrace, geometry: CacheGeometry) -> None:
    if events.line_size != geometry.line_size:
        raise SchemeError(
            f"trace line size {events.line_size} does not match cache "
            f"line size {geometry.line_size}"
        )


def _check_tlb(itlb_entries: int, page_size: int, wpa_size: int) -> None:
    if itlb_entries < 1:
        raise CacheConfigError(f"TLB needs at least one entry, got {itlb_entries}")
    log2_exact(page_size, "page size")
    if wpa_size < 0 or wpa_size % page_size:
        raise CacheConfigError(
            f"way-placement area size {wpa_size} is not a non-negative "
            f"multiple of the {page_size}-byte page size"
        )


def baseline_counters(
    events: LineEventTrace,
    geometry: CacheGeometry,
    itlb_entries: int = 32,
    page_size: int = 1024,
    same_line_skip: bool = False,
) -> FetchCounters:
    """Vectorized :class:`~repro.schemes.baseline.BaselineScheme` replay."""
    _check_stream(events, geometry)
    _check_tlb(itlb_entries, page_size, 0)

    counters = FetchCounters()
    n = events.num_events
    ways = geometry.ways
    fetches = events.num_fetches
    counters.fetches = fetches
    counters.line_events = n
    if same_line_skip:
        counters.same_line_fetches = fetches - n
        counters.full_searches = n
        counters.ways_precharged = ways * n
    else:
        counters.full_searches = fetches
        counters.ways_precharged = ways * fetches
    counters.itlb_accesses = n
    counters.itlb_misses = itlb_misses(events, page_size, itlb_entries)

    # Sequential cache state, keyed by line address: a hit is one dict
    # lookup, and only a miss derives the set whose round-robin pointer
    # picks the victim.
    offset_bits = geometry.offset_bits
    set_mask = mask(geometry.set_bits)
    way_of: Dict[int, int] = {}
    line_at = [[-1] * ways for _ in range(geometry.num_sets)]
    pointer = [0] * geometry.num_sets
    misses = evictions = 0
    for line in events.line_addrs.tolist():
        if line in way_of:
            continue
        misses += 1
        s = (line >> offset_bits) & set_mask
        p = pointer[s]
        pointer[s] = p + 1 if p + 1 < ways else 0
        row = line_at[s]
        old = row[p]
        if old != -1:
            del way_of[old]
            evictions += 1
        row[p] = line
        way_of[line] = p
    counters.hits = n - misses
    counters.misses = misses
    counters.fills = misses
    counters.evictions = evictions
    counters.validate()
    return counters


def way_placement_counters(
    events: LineEventTrace,
    geometry: CacheGeometry,
    wpa_size: int = 0,
    itlb_entries: int = 32,
    page_size: int = 1024,
    same_line_skip: bool = True,
    wpa_base: int = 0,
    hint_initial: bool = False,
) -> FetchCounters:
    """Vectorized :class:`~repro.schemes.way_placement.WayPlacementScheme` replay."""
    _check_stream(events, geometry)
    if wpa_size < 0:
        raise SchemeError(f"way-placement area size must be >= 0, got {wpa_size}")
    if wpa_base != 0:
        raise SchemeError(
            "the way-placement area must start at the beginning of the "
            "binary (address 0 in this model)"
        )
    _check_tlb(itlb_entries, page_size, wpa_size)

    counters = FetchCounters()
    n = events.num_events
    ways = geometry.ways
    fetches = events.num_fetches
    counters.fetches = fetches
    counters.line_events = n
    counters.itlb_accesses = n
    counters.itlb_misses = itlb_misses(events, page_size, itlb_entries)

    flags = wpa_flags(events, wpa_size)
    hints = way_hints(events, wpa_size, hint_initial)
    predicted = int(np.count_nonzero(hints))
    false_positives = int(np.count_nonzero(hints & ~flags))
    false_negatives = int(np.count_nonzero(flags & ~hints))

    # Transition accesses: one per event, plus the corrective full access
    # after each false positive.
    full_searches = (n - predicted) + false_positives
    single_way = predicted
    ways_precharged = predicted + ways * full_searches
    counters.second_accesses = false_positives
    counters.extra_access_cycles = false_positives
    counters.hint_false_positives = false_positives
    counters.hint_false_negatives = false_negatives

    # Intra-line fetches after the transition.
    if same_line_skip:
        counters.same_line_fetches = fetches - n
    elif n:
        extra = (events.counts - 1).astype(np.int64)
        wpa_extra = int(extra[flags].sum())
        other_extra = (fetches - n) - wpa_extra
        single_way += wpa_extra
        ways_precharged += wpa_extra
        full_searches += other_extra
        ways_precharged += ways * other_extra
    counters.full_searches = full_searches
    counters.single_way_searches = single_way
    counters.ways_precharged = ways_precharged

    # Sequential cache state.  The way-placement invariant (a WPA line is
    # only ever resident in its mandated way) makes the single-way probe of
    # a correctly predicted access equivalent to a membership test, so one
    # loop covers all three prediction branches of the reference scheme.
    offset_bits = geometry.offset_bits
    set_mask = mask(geometry.set_bits)
    tag_shift = offset_bits + geometry.set_bits
    way_mask = mask(geometry.way_bits)
    way_of: Dict[int, int] = {}
    line_at = [[-1] * ways for _ in range(geometry.num_sets)]
    pointer = [0] * geometry.num_sets
    misses = wp_fills = evictions = 0
    for line in events.line_addrs.tolist():
        if line in way_of:
            continue
        misses += 1
        s = (line >> offset_bits) & set_mask
        if line < wpa_size:
            p = (line >> tag_shift) & way_mask
            wp_fills += 1
        else:
            p = pointer[s]
            pointer[s] = p + 1 if p + 1 < ways else 0
        row = line_at[s]
        old = row[p]
        if old != -1:
            del way_of[old]
            evictions += 1
        row[p] = line
        way_of[line] = p
    counters.hits = n - misses
    counters.misses = misses
    counters.fills = misses
    counters.wp_fills = wp_fills
    counters.evictions = evictions
    counters.validate()
    return counters


def fast_counters(
    scheme: str,
    events: LineEventTrace,
    geometry: CacheGeometry,
    **options,
) -> Optional[FetchCounters]:
    """Replay ``events`` on the fast path, or ``None`` if there is none.

    Returns ``None`` (rather than raising) when the scheme has no vectorized
    kernel or the options include something the kernel does not model, so
    callers can always fall back to the reference implementation.
    """
    if scheme == "baseline":
        if not set(options) <= _BASELINE_OPTIONS:
            return None
        return baseline_counters(events, geometry, **options)
    if scheme == "way-placement":
        if not set(options) <= _WAY_PLACEMENT_OPTIONS:
            return None
        return way_placement_counters(events, geometry, **options)
    return None
