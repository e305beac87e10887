"""Per-trace derived arrays, computed with NumPy on every call.

Every fetch scheme re-derives the same quantities from a
:class:`~repro.trace.events.LineEventTrace`: whether each address lies in
the way-placement area, the way-hint vector (which is just the WPA flag
shifted by one event), the round-robin I-TLB miss count, and the
distinct-line footprint the static bounds start from.  This module
computes them vectorized; nothing is memoised, so the cells of a sweep
share only the trace itself and every call pays its own (small) cost.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.trace.events import LineEventTrace
from repro.utils.bitops import log2_exact, mask

__all__ = [
    "itlb_misses",
    "line_census",
    "way_hints",
    "wpa_flags",
]


def itlb_misses(events: LineEventTrace, page_size: int, entries: int) -> int:
    """Round-robin fully-associative TLB misses over the event stream.

    Bit-identical to :class:`~repro.cache.itlb.InstructionTlb`: only events
    whose page differs from the previous event's can miss, so the TLB state
    machine runs over that (much shorter) subsequence.
    """
    n = events.num_events
    if n == 0:
        return 0
    pages = events.line_addrs >> log2_exact(page_size, "page size")
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
    return misses


def wpa_flags(events: LineEventTrace, wpa_size: int) -> np.ndarray:
    """Boolean per-event array: does the line lie in ``[0, wpa_size)``?"""
    return events.line_addrs < wpa_size


def way_hints(
    events: LineEventTrace, wpa_size: int, hint_initial: bool = False
) -> np.ndarray:
    """The way-hint vector: the WPA flag of the *previous* event.

    ``hint_initial`` seeds element 0, exactly like
    :class:`~repro.cache.wayhint.WayHintBit` (a last-value predictor).
    """
    flags = wpa_flags(events, wpa_size)
    hints = np.empty_like(flags)
    if hints.shape[0]:
        hints[0] = hint_initial
        hints[1:] = flags[:-1]
    return hints


def line_census(
    events: LineEventTrace, geometry: CacheGeometry
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct-line footprint of the trace under ``geometry``.

    Returns ``(lines, occurrences, set_indices, mandated_ways)``: the
    sorted distinct line addresses, how many events touch each, and each
    line's set index and mandated way.  This is the input to the static
    counter bounds (``repro.analysis.absint.bounds``), which the S008
    sanitizer invariant recomputes on every sanitized run.
    """
    lines, occurrences = np.unique(events.line_addrs, return_counts=True)
    set_indices = (lines >> geometry.offset_bits) & mask(geometry.set_bits)
    mandated = (lines >> (geometry.offset_bits + geometry.set_bits)) & mask(
        geometry.way_bits
    )
    return lines, occurrences, set_indices, mandated
