"""Functional model of the XScale-style CAM-organised instruction cache.

Each set is a fully-associative CAM sub-bank.  The model tracks tags,
validity, and a per-line *generation* counter (bumped on every fill) that
gives each resident line a unique identity ``(set, way, generation)`` —
the way-memoization scheme uses generations to decide link validity exactly
(a link is stale as soon as either endpoint line has been replaced).

Energy is *not* modelled here: schemes count the activity (ways precharged,
tags compared) and the energy model prices it afterwards.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import RoundRobinReplacement
from repro.errors import CacheConfigError

__all__ = ["CamCache"]


class CamCache:
    """Tag store of a set-associative cache with explicit-way fills."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        sets, ways = geometry.num_sets, geometry.ways
        self.policy = RoundRobinReplacement(sets, ways)
        self._tags: List[List[int]] = [[-1] * ways for _ in range(sets)]
        self._generation: List[List[int]] = [[0] * ways for _ in range(sets)]
        self._fills = 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def find(self, set_index: int, tag: int) -> int:
        """Way holding ``tag`` in ``set_index``, or -1 (a full CAM search)."""
        try:
            return self._tags[set_index].index(tag)
        except ValueError:
            return -1

    def probe_way(self, set_index: int, way: int, tag: int) -> bool:
        """Single-way tag check (a way-placement access)."""
        return self._tags[set_index][way] == tag

    def valid(self, set_index: int, way: int) -> bool:
        return self._tags[set_index][way] != -1

    def tag_at(self, set_index: int, way: int) -> int:
        return self._tags[set_index][way]

    def generation(self, set_index: int, way: int) -> int:
        """Fill counter of (set, way): identifies the resident line uniquely."""
        return self._generation[set_index][way]

    # ------------------------------------------------------------------
    # Fills
    # ------------------------------------------------------------------
    def fill(self, set_index: int, tag: int, way: Optional[int] = None) -> Tuple[int, bool]:
        """Install ``tag``; returns ``(way_used, evicted_valid_line)``.

        ``way`` forces the paper's explicit way placement; ``None`` takes
        the round-robin victim.
        """
        if tag < 0:
            raise CacheConfigError(f"tags must be non-negative, got {tag}")
        if way is None:
            way = self.policy.victim(set_index)
        tags = self._tags[set_index]
        evicted_valid = tags[way] != -1
        tags[way] = tag
        self._generation[set_index][way] += 1
        self._fills += 1
        return way, evicted_valid

    def invalidate_all(self) -> None:
        """Flush the cache (tags only; generations keep counting)."""
        for tags in self._tags:
            for way in range(len(tags)):
                tags[way] = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_fills(self) -> int:
        return self._fills

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        valid = sum(1 for tags in self._tags for tag in tags if tag != -1)
        return valid / (self.geometry.num_sets * self.geometry.ways)

    def resident_lines(self) -> List[Tuple[int, int, int]]:
        """All valid (set, way, tag) triples, for tests and inspection."""
        return [
            (set_index, way, tag)
            for set_index, tags in enumerate(self._tags)
            for way, tag in enumerate(tags)
            if tag != -1
        ]

    def assert_no_duplicate_tags(self) -> None:
        """Invariant check: a tag may appear in at most one way of a set."""
        for set_index, tags in enumerate(self._tags):
            seen = {}
            for way, tag in enumerate(tags):
                if tag == -1:
                    continue
                if tag in seen:
                    raise CacheConfigError(
                        f"duplicate tag {tag:#x} in set {set_index} "
                        f"(ways {seen[tag]} and {way})"
                    )
                seen[tag] = way
