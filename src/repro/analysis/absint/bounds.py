"""Static lower/upper bounds on :class:`FetchCounters` and energy.

Given only the *footprint* of a trace — which lines exist, how often each
is fetched, and how they map onto cache sets — every counter of the
baseline and way-placement replay is either exactly determined or
provably bracketed, without replaying the sequential cache state:

* **Exact fields.**  Search, precharge, way-hint, same-line, and I-TLB
  counts depend only on the event stream and the configuration, never on
  cache contents; they are reproduced here with the same closed forms the
  vectorized kernels use.
* **Interval fields** (hits / misses / fills / wp_fills / evictions)
  are bracketed per set:

  - every distinct line must miss at least once (the cache starts cold),
    so ``misses >= distinct lines``;
  - a **budget-one** set (the lines mapping to it can never cause an
    eviction: for baseline, at most ``ways`` distinct lines; for
    way-placement, pairwise-distinct mandated ways for the WPA lines and
    few enough policy lines that the round-robin pointer can never reach
    a mandated way) misses exactly once per distinct line and never
    evicts;
  - any other set misses at most once per event and evicts at most once
    per fill beyond the first (the very first fill of a set finds an
    invalid way);
  - ``hits = line_events - misses`` with the interval flipped, and
    ``fills = misses`` (both schemes fill on every miss).

The soundness of using the *trace* footprint as the line universe is
immediate: a replay only ever fills lines the trace touches.

Energy bounds follow because :class:`CacheEnergyModel` is monotone
non-decreasing in every counter (all per-event prices are non-negative),
so pricing the lower and upper counter vectors brackets the energy of
any real run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.energy.cache_model import CacheEnergyModel, EnergyBreakdown
from repro.engine.arrays import itlb_misses, line_census, way_hints, wpa_flags
from repro.trace.events import LineEventTrace

__all__ = [
    "BoundsViolation",
    "CounterBounds",
    "bounds_for_options",
    "energy_bounds",
    "footprint_bounds",
]

#: Schemes the bounds model (the same pair the fast kernels cover).
BOUNDED_SCHEMES = frozenset({"baseline", "way-placement"})

_BASELINE_OPTIONS = frozenset({"itlb_entries", "page_size", "same_line_skip"})
_WAY_PLACEMENT_OPTIONS = frozenset(
    {"wpa_size", "itlb_entries", "page_size", "same_line_skip", "wpa_base", "hint_initial"}
)


@dataclass(frozen=True)
class BoundsViolation:
    """One counter that escaped its static bracket."""

    field: str
    value: int
    lower: int
    upper: int

    def render(self) -> str:
        return (
            f"{self.field} = {self.value} outside static bounds "
            f"[{self.lower}, {self.upper}]"
        )


@dataclass(frozen=True)
class CounterBounds:
    """Field-wise bracket: ``lower <= counters <= upper`` for any real run."""

    scheme: str
    lower: FetchCounters
    upper: FetchCounters

    def violations(self, counters: FetchCounters) -> List[BoundsViolation]:
        out: List[BoundsViolation] = []
        for field in fields(FetchCounters):
            value = getattr(counters, field.name)
            low = getattr(self.lower, field.name)
            high = getattr(self.upper, field.name)
            if not low <= value <= high:
                out.append(BoundsViolation(field.name, value, low, high))
        return out

    def to_dict(self) -> Dict[str, List[int]]:
        """``{field: [lower, upper]}``, every field, sorted (JSON-stable)."""
        return {
            field.name: [
                getattr(self.lower, field.name),
                getattr(self.upper, field.name),
            ]
            for field in sorted(fields(FetchCounters), key=lambda f: f.name)
        }


def footprint_bounds(
    scheme: str,
    events: LineEventTrace,
    geometry: CacheGeometry,
    *,
    wpa_size: int = 0,
    itlb_entries: int = 32,
    page_size: int = 1024,
    same_line_skip: Optional[bool] = None,
    hint_initial: bool = False,
) -> Optional[CounterBounds]:
    """Bracket every counter of one replay config, or ``None`` if unmodelled."""
    if scheme not in BOUNDED_SCHEMES:
        return None
    place = scheme == "way-placement"
    if same_line_skip is None:
        same_line_skip = place  # the schemes' constructor defaults
    if not place:
        wpa_size = 0

    n = events.num_events
    fetches = events.num_fetches
    ways = geometry.ways
    lower = FetchCounters()
    upper = FetchCounters()

    def exact(field: str, value: int) -> None:
        setattr(lower, field, value)
        setattr(upper, field, value)

    exact("fetches", fetches)
    exact("line_events", n)
    exact("itlb_accesses", n)
    exact("itlb_misses", itlb_misses(events, page_size, itlb_entries))

    if not place:
        if same_line_skip:
            exact("same_line_fetches", fetches - n)
            exact("full_searches", n)
            exact("ways_precharged", ways * n)
        else:
            exact("full_searches", fetches)
            exact("ways_precharged", ways * fetches)
    else:
        flags = wpa_flags(events, wpa_size)
        hints = way_hints(events, wpa_size, hint_initial)
        predicted = int(np.count_nonzero(hints))
        false_positives = int(np.count_nonzero(hints & ~flags))
        false_negatives = int(np.count_nonzero(flags & ~hints))
        full_searches = (n - predicted) + false_positives
        single_way = predicted
        ways_precharged = predicted + ways * full_searches
        exact("second_accesses", false_positives)
        exact("extra_access_cycles", false_positives)
        exact("hint_false_positives", false_positives)
        exact("hint_false_negatives", false_negatives)
        if same_line_skip:
            exact("same_line_fetches", fetches - n)
        elif n:
            extra = (events.counts - 1).astype(np.int64)
            wpa_extra = int(extra[flags].sum())
            other_extra = (fetches - n) - wpa_extra
            single_way += wpa_extra
            ways_precharged += wpa_extra
            full_searches += other_extra
            ways_precharged += ways * other_extra
        exact("full_searches", full_searches)
        exact("single_way_searches", single_way)
        exact("ways_precharged", ways_precharged)

    # ---- interval fields from the per-set footprint ----------------------
    lines, occurrences, set_indices, homes = line_census(events, geometry)
    per_set: Dict[int, List[Tuple[int, int, int]]] = {}
    for line, occ, set_index, home in zip(
        lines.tolist(), occurrences.tolist(), set_indices.tolist(), homes.tolist()
    ):
        per_set.setdefault(set_index, []).append((line, occ, home))

    miss_low = miss_high = 0
    evict_low = evict_high = 0
    wp_low = wp_high = 0
    for members in per_set.values():
        distinct = len(members)
        set_events = sum(occ for _line, occ, _home in members)
        if place:
            wpa_homes = [home for line, _occ, home in members if line < wpa_size]
            policy = distinct - len(wpa_homes)
            budget_one = (
                len(set(wpa_homes)) == len(wpa_homes)
                and policy <= ways
                and (not wpa_homes or not policy or min(wpa_homes) >= policy)
            )
        else:
            budget_one = distinct <= ways
        miss_low += distinct
        for line, occ, _home in members:
            if place and line < wpa_size:
                wp_low += 1
                wp_high += 1 if budget_one else occ
        miss_high += distinct if budget_one else set_events
        evict_low += max(0, distinct - ways)
        if not budget_one:
            evict_high += max(0, set_events - 1)

    lower.misses, upper.misses = miss_low, miss_high
    lower.fills, upper.fills = miss_low, miss_high
    lower.hits, upper.hits = n - miss_high, n - miss_low
    lower.evictions, upper.evictions = evict_low, evict_high
    lower.wp_fills, upper.wp_fills = wp_low, wp_high
    return CounterBounds(scheme, lower, upper)


def bounds_for_options(
    scheme: str,
    events: LineEventTrace,
    geometry: CacheGeometry,
    options: Mapping[str, Any],
) -> Optional[CounterBounds]:
    """:func:`footprint_bounds` from a kernel-style options mapping.

    Mirrors the option gating of ``engine.kernels.fast_counters``:
    anything the bounds do not model returns ``None`` so callers skip the
    check instead of mis-bracketing.
    """
    allowed = _WAY_PLACEMENT_OPTIONS if scheme == "way-placement" else _BASELINE_OPTIONS
    if scheme not in BOUNDED_SCHEMES or not set(options) <= allowed:
        return None
    if options.get("wpa_base", 0) != 0:
        return None
    kwargs: Dict[str, Any] = {
        key: options[key]
        for key in ("wpa_size", "itlb_entries", "page_size", "hint_initial")
        if key in options
    }
    if "same_line_skip" in options:
        kwargs["same_line_skip"] = options["same_line_skip"]
    return footprint_bounds(scheme, events, geometry, **kwargs)


def energy_bounds(
    bounds: CounterBounds, model: CacheEnergyModel
) -> Tuple[EnergyBreakdown, EnergyBreakdown]:
    """Price the bracket's endpoints.

    Sound because every :class:`CacheEnergyModel` term is a non-negative
    price times a counter (and the exact fields coincide in both
    endpoints), so the model is monotone over the bracketed fields.
    """
    return model.energy(bounds.lower), model.energy(bounds.upper)
