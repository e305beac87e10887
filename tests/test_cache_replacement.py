"""Unit tests for round-robin replacement."""

import pytest

from repro.cache.replacement import RoundRobinReplacement
from repro.errors import CacheConfigError


class TestRoundRobin:
    def test_cycles_through_ways(self):
        policy = RoundRobinReplacement(2, 4)
        assert [policy.victim(0) for _ in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_sets_independent(self):
        policy = RoundRobinReplacement(2, 4)
        policy.victim(0)
        policy.victim(0)
        assert policy.victim(1) == 0

    def test_geometry_validated(self):
        with pytest.raises(CacheConfigError):
            RoundRobinReplacement(0, 4)

