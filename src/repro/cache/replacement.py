"""Round-robin replacement, XScale's policy.

Every cache in the reproduction replaces round robin: the reference
:class:`~repro.cache.cam_cache.CamCache`, the vectorized kernels, the
static counter bounds and the conflict replay all model exactly this
policy, so it is the only one.  The policy holds a rotating pointer per
set; ``victim`` proposes the way to replace and advances the pointer.
"""

from __future__ import annotations

from typing import List

from repro.errors import CacheConfigError

__all__ = ["RoundRobinReplacement"]


class RoundRobinReplacement:
    """XScale's policy: a rotating pointer per set.

    Way-placed fills land in a mandated way *without* consulting the policy,
    so the pointer only advances when the policy actually chose the victim.
    """

    def __init__(self, num_sets: int, ways: int):
        if num_sets < 1 or ways < 1:
            raise CacheConfigError(
                f"replacement policy needs positive geometry, got "
                f"{num_sets} sets x {ways} ways"
            )
        self.num_sets = num_sets
        self.ways = ways
        self._pointer: List[int] = [0] * num_sets

    def victim(self, set_index: int) -> int:
        """Way to evict next in ``set_index``."""
        way = self._pointer[set_index]
        self._pointer[set_index] = (way + 1) % self.ways
        return way
