"""Helpers for driving fetch schemes with hand-written event streams."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.schemes.baseline import BaselineScheme
from repro.schemes.way_placement import WayPlacementScheme
from repro.trace.events import LineEventTrace, SEQUENTIAL_SLOT

__all__ = [
    "DIRECT_MAPPED",
    "MIXED_CONFIGS",
    "SPARSE_SWEEP",
    "TINY_GEOMETRY",
    "events_from",
    "line_of",
    "reference_counters",
]

#: 4 sets x 4 ways x 16B lines = 256B — small enough to reason by hand.
TINY_GEOMETRY = CacheGeometry(256, 4, 16)

#: One way per set: every miss to an occupied set evicts, and the mandated
#: way and the round-robin victim are always the same way.
DIRECT_MAPPED = CacheGeometry(64, 1, 16)

#: A ``(scheme, options)`` configuration of a fast-path scheme.
Config = Tuple[str, Mapping]

#: An adversarial option grid: baseline and way-placement mixed, a WPA
#: sweep with a duplicate point, same_line_skip toggled against each
#: kernel's default, a non-default hint seed, and a tiny I-TLB.
MIXED_CONFIGS: Sequence[Config] = (
    ("way-placement", {"wpa_size": 256, "page_size": 16}),
    ("baseline", {"page_size": 16}),
    ("way-placement", {"wpa_size": 0, "page_size": 16}),
    ("way-placement", {"wpa_size": 64, "page_size": 16}),
    ("way-placement", {"wpa_size": 256, "page_size": 16, "same_line_skip": False}),
    ("baseline", {"page_size": 16, "same_line_skip": True}),
    ("way-placement", {"wpa_size": 128, "page_size": 16, "hint_initial": True}),
    ("way-placement", {"wpa_size": 64, "page_size": 16, "itlb_entries": 2}),
    ("way-placement", {"wpa_size": 64, "page_size": 16}),
)

#: Non-contiguous WPA sizes: gaps, duplicates, and points beyond the
#: 40-line extent of the Hypothesis streams, so some WPAs cover nothing
#: new and others cover almost every address.
SPARSE_SWEEP: Sequence[Config] = (
    ("way-placement", {"wpa_size": 32, "page_size": 16}),
    ("way-placement", {"wpa_size": 640, "page_size": 16}),
    ("baseline", {"page_size": 16}),
    ("way-placement", {"wpa_size": 64, "page_size": 16}),
    ("way-placement", {"wpa_size": 64, "page_size": 16}),
    ("way-placement", {"wpa_size": 4096, "page_size": 16}),
)

EventSpec = Union[int, Tuple[int, int], Tuple[int, int, int]]


def events_from(specs: Iterable[EventSpec], line_size: int = 16) -> LineEventTrace:
    """Build a LineEventTrace from (line_addr[, count[, slot]]) specs."""
    addrs, counts, slots = [], [], []
    for spec in specs:
        if isinstance(spec, int):
            spec = (spec,)
        addr = spec[0]
        count = spec[1] if len(spec) > 1 else 1
        slot = spec[2] if len(spec) > 2 else SEQUENTIAL_SLOT
        addrs.append(addr)
        counts.append(count)
        slots.append(slot)
    return LineEventTrace(
        line_size=line_size,
        line_addrs=np.asarray(addrs, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int32),
        slots=np.asarray(slots, dtype=np.int16),
    )


def line_of(geometry: CacheGeometry, set_index: int, tag: int) -> int:
    """Line address that maps to (set_index, tag) under ``geometry``."""
    return geometry.reconstruct_address(tag, set_index)


def reference_counters(
    scheme: str,
    options: Mapping,
    events: LineEventTrace,
    geometry: CacheGeometry = TINY_GEOMETRY,
) -> FetchCounters:
    """Replay ``events`` on the reference ``baseline``/``way-placement`` scheme."""
    cls = BaselineScheme if scheme == "baseline" else WayPlacementScheme
    return cls(geometry, **dict(options)).run(events)
