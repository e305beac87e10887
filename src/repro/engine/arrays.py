"""Per-trace derived arrays, computed once and shared across schemes.

Every fetch scheme re-derives the same quantities from a
:class:`~repro.trace.events.LineEventTrace`: the set index and tag of each
event, the mandated way of each address, whether the address lies in the
way-placement area, and the way-hint vector (which is just the WPA flag
shifted by one event).  This module computes them vectorized with NumPy and
memoises them per trace object, keyed by the geometry/WPA parameters they
depend on — replaying the same trace under nine cache configurations or six
WPA sizes recomputes only what actually changed.

Two quantities are memoised in the form their consumers use, because
repeated cells on the same trace kept re-deriving them:

* :func:`geometry_lists` — the per-event set/tag/mandated-way slices as the
  plain lists the sequential kernel loops iterate (only the lists are
  kept: the slicing arrays are temporaries, so each trace pays the memory
  once per geometry, not twice);
* :func:`itlb_misses` — the round-robin I-TLB miss count, which depends
  only on ``(page_size, entries)`` and is therefore identical for every
  cell of a WPA sweep.

The memo holds weak references to the traces, so arrays die with the trace
they describe.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.trace.events import LineEventTrace
from repro.utils.bitops import log2_exact, mask

__all__ = [
    "geometry_lists",
    "itlb_misses",
    "line_census",
    "page_numbers",
    "sweep_aggregates",
    "way_hints",
    "wpa_flag_list",
    "wpa_flags",
]

# id(trace) -> (weakref keeping the id honest, {cache key: arrays}).  A plain
# WeakKeyDictionary would be simpler but LineEventTrace is an eq=True frozen
# dataclass holding ndarrays, hence unhashable.
_PER_TRACE: Dict[int, Tuple[weakref.ref, dict]] = {}


def _memo(events: LineEventTrace) -> dict:
    key = id(events)
    entry = _PER_TRACE.get(key)
    if entry is not None and entry[0]() is events:
        return entry[1]
    store: dict = {}
    ref = weakref.ref(events, lambda _ref, _key=key: _PER_TRACE.pop(_key, None))
    _PER_TRACE[key] = (ref, store)
    return store


def geometry_lists(
    events: LineEventTrace, geometry: CacheGeometry
) -> Tuple[List[int], List[int], List[int]]:
    """Per-event ``(set_indices, tags, mandated_ways)`` under ``geometry``.

    Plain lists, memoised: the sequential kernel loops iterate Python ints,
    and converting the slices costs ~1ms per 60k events, which a WPA sweep
    used to pay once per cell.  Only the address-slicing bit widths matter,
    so geometries equal in offset, set and way bits share a slot.
    """
    key = ("geom", geometry.offset_bits, geometry.set_bits, geometry.way_bits)
    store = _memo(events)
    if key not in store:
        addrs = events.line_addrs
        set_indices = (addrs >> geometry.offset_bits) & mask(geometry.set_bits)
        tags = addrs >> (geometry.offset_bits + geometry.set_bits)
        mandated = tags & mask(geometry.way_bits)
        store[key] = (set_indices.tolist(), tags.tolist(), mandated.tolist())
    return store[key]


def itlb_misses(events: LineEventTrace, page_size: int, entries: int) -> int:
    """Round-robin fully-associative TLB misses over the event stream.

    Bit-identical to :class:`~repro.cache.itlb.InstructionTlb`: only events
    whose page differs from the previous event's can miss, so the TLB state
    machine runs over that (much shorter) subsequence.  Memoised per
    ``(page_size, entries)`` — every cell of a sweep shares the count.
    """
    key = ("itlb", page_size, entries)
    store = _memo(events)
    if key in store:
        return store[key]
    n = events.num_events
    if n == 0:
        store[key] = 0
        return 0
    pages = page_numbers(events, log2_exact(page_size, "page size"))
    changed = np.empty(n, dtype=bool)
    changed[0] = True
    np.not_equal(pages[1:], pages[:-1], out=changed[1:])
    slots = [-1] * entries
    resident = set()
    pointer = 0
    misses = 0
    for page in pages[changed].tolist():
        if page in resident:
            continue
        misses += 1
        old = slots[pointer]
        if old != -1:
            resident.discard(old)
        slots[pointer] = page
        resident.add(page)
        pointer += 1
        if pointer == entries:
            pointer = 0
    store[key] = misses
    return misses


def wpa_flags(events: LineEventTrace, wpa_size: int) -> np.ndarray:
    """Boolean per-event array: does the line lie in ``[0, wpa_size)``?"""
    key = ("wpa", wpa_size)
    store = _memo(events)
    if key not in store:
        store[key] = events.line_addrs < wpa_size
    return store[key]


def way_hints(
    events: LineEventTrace, wpa_size: int, hint_initial: bool = False
) -> np.ndarray:
    """The way-hint vector: the WPA flag of the *previous* event.

    ``hint_initial`` seeds element 0, exactly like
    :class:`~repro.cache.wayhint.WayHintBit` (a last-value predictor).
    """
    key = ("hint", wpa_size, bool(hint_initial))
    store = _memo(events)
    if key not in store:
        flags = wpa_flags(events, wpa_size)
        hints = np.empty_like(flags)
        if hints.shape[0]:
            hints[0] = hint_initial
            hints[1:] = flags[:-1]
        store[key] = hints
    return store[key]


def wpa_flag_list(events: LineEventTrace, wpa_size: int) -> List[bool]:
    """:func:`wpa_flags` as a plain list, memoised (see :func:`geometry_lists`)."""
    key = ("wpalist", wpa_size)
    store = _memo(events)
    if key not in store:
        store[key] = wpa_flags(events, wpa_size).tolist()
    return store[key]


def sweep_aggregates(
    events: LineEventTrace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sorted per-trace aggregates that turn WPA-sweep reductions into lookups.

    Every event-independent way-placement count is a monotone function of
    the threshold ``w`` counting events or consecutive-event pairs with an
    address below ``w``:

    * ``prefix_sorted`` — ``sort(addrs[:-1])``: hints past event 0 are the
      previous event's WPA flag, so the predicted count is
      ``searchsorted(prefix_sorted, w)`` (+1 for an initial hint);
    * ``up_a / up_b`` — the ascending consecutive pairs ``a < b``, each
      endpoint sorted: a hint false positive at ``j >= 1`` is
      ``a < w <= b``, and counts as ``#(a < w) - #(b < w)``;
    * ``dn_a / dn_b`` — the descending pairs ``a > b`` likewise: a false
      negative is ``b < w <= a``, i.e. ``#(b < w) - #(a < w)``;
    * ``addr_sorted / extra_cumsum`` — addresses sorted with the zero-
      prefixed running sum of ``counts - 1`` in the same order: repeat
      fetches inside the WPA are ``extra_cumsum[#(addr < w)]``.

    All integer-exact, so the derived counts are bit-identical to the 2-D
    boolean reductions.  Computed once per trace — O(events log events) —
    and shared by every sweep family over it, turning the per-member cost
    into a handful of ``searchsorted`` probes.
    """
    key = ("sweep",)
    store = _memo(events)
    if key not in store:
        addrs = events.line_addrs.astype(np.int64, copy=False)
        a, b = addrs[:-1], addrs[1:]
        up = a < b
        down = a > b
        order = np.argsort(addrs, kind="stable")
        extra_cumsum = np.zeros(addrs.shape[0] + 1, dtype=np.int64)
        np.cumsum((events.counts.astype(np.int64) - 1)[order], out=extra_cumsum[1:])
        store[key] = (
            np.sort(a),
            np.sort(a[up]),
            np.sort(b[up]),
            np.sort(a[down]),
            np.sort(b[down]),
            addrs[order],
            extra_cumsum,
        )
    return store[key]


def line_census(
    events: LineEventTrace, geometry: CacheGeometry
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct-line footprint of the trace under ``geometry``.

    Returns ``(lines, occurrences, set_indices, mandated_ways)``: the
    sorted distinct line addresses, how many events touch each, and each
    line's set index and mandated way.  This is the input to the static
    counter bounds (``repro.analysis.absint.bounds``), which the S008
    sanitizer invariant recomputes on every sanitized run — hence the
    same per-trace memo the kernels use.
    """
    key = ("census", geometry.offset_bits, geometry.set_bits, geometry.way_bits)
    store = _memo(events)
    if key not in store:
        lines, occurrences = np.unique(events.line_addrs, return_counts=True)
        set_indices = (lines >> geometry.offset_bits) & mask(geometry.set_bits)
        mandated = (lines >> (geometry.offset_bits + geometry.set_bits)) & mask(
            geometry.way_bits
        )
        store[key] = (lines, occurrences, set_indices, mandated)
    return store[key]


def page_numbers(events: LineEventTrace, page_bits: int) -> np.ndarray:
    """Per-event virtual page number (for I-TLB modelling)."""
    key = ("pages", page_bits)
    store = _memo(events)
    if key not in store:
        store[key] = events.line_addrs >> page_bits
    return store[key]
