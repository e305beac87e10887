"""Compressed line-event traces: the input format of every fetch scheme.

One event = the fetch stream entering a(nother) instruction cache line:

* ``line_addrs[i]`` — byte address of the line (aligned to the line size);
* ``counts[i]``     — how many consecutive instruction fetches hit this line
  before the stream moves on (>= 1);
* ``slots[i]``      — how the line was *entered*: :data:`SEQUENTIAL_SLOT`
  when the previous fetch was at the immediately preceding address (falling
  off the previous line or straight-line code), otherwise the slot index
  (instruction position within its line) of the branch instruction that
  jumped here.  Way-memoization keys its per-line links on exactly this
  distinction (8 branch-slot links + 1 sequential link per 32-byte line).

Consecutive events always have different line addresses; re-entering the
same line after visiting another produces a fresh event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError

__all__ = ["LineEventTrace", "SEQUENTIAL_SLOT"]

#: Slot value marking a sequential (fall-off-the-end) line entry.
SEQUENTIAL_SLOT = -1


@dataclass(frozen=True)
class LineEventTrace:
    """Immutable compressed fetch trace (see module docstring)."""

    line_size: int
    line_addrs: np.ndarray  # int64
    counts: np.ndarray  # int32
    slots: np.ndarray  # int16

    def __post_init__(self) -> None:
        n = self.line_addrs.shape[0]
        if self.counts.shape[0] != n or self.slots.shape[0] != n:
            raise TraceError("line-event arrays must have equal length")
        if n and int(self.counts.min()) < 1:
            raise TraceError("every line event must cover at least one fetch")
        # The kernels key cache residency by line address, so an unaligned
        # address would replay as a line of its own.
        if self.line_size <= 0:
            raise TraceError(f"line size must be positive, got {self.line_size}")
        if np.any(self.line_addrs % self.line_size):
            raise TraceError(
                f"line addresses must be aligned to the {self.line_size}-byte line size"
            )

    @property
    def num_events(self) -> int:
        return int(self.line_addrs.shape[0])

    @property
    def num_fetches(self) -> int:
        return int(self.counts.sum()) if self.num_events else 0

    @property
    def compression_ratio(self) -> float:
        """Fetches per event — how much the line encoding compressed."""
        if self.num_events == 0:
            return 0.0
        return self.num_fetches / self.num_events

    def touched_lines(self) -> np.ndarray:
        """Sorted unique line addresses in the trace (the code footprint)."""
        return np.unique(self.line_addrs)

    def segment(self, start: int, end: int) -> "LineEventTrace":
        """Events ``[start, end)`` as a new trace (views, not copies).

        Used by the adaptive-WPA controller to feed a scheme window by
        window; note the first event of a segment keeps its original entry
        slot, so segmented replay is exactly equivalent to whole-trace
        replay for every scheme.
        """
        if not 0 <= start <= end <= self.num_events:
            raise TraceError(
                f"segment [{start}, {end}) outside trace of {self.num_events} events"
            )
        return LineEventTrace(
            line_size=self.line_size,
            line_addrs=self.line_addrs[start:end],
            counts=self.counts[start:end],
            slots=self.slots[start:end],
        )
