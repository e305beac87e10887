"""Unit tests for the CAM cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cam_cache import CamCache
from repro.cache.geometry import CacheGeometry
from repro.errors import CacheConfigError


def small_cache():
    return CamCache(CacheGeometry(256, 4, 16))  # 4 sets x 4 ways


class TestFindAndFill:
    def test_empty_cache_misses(self):
        cache = small_cache()
        assert cache.find(0, 0x1) == -1

    def test_fill_then_find(self):
        cache = small_cache()
        way, evicted = cache.fill(2, 0x7)
        assert not evicted
        assert cache.find(2, 0x7) == way
        assert cache.probe_way(2, way, 0x7)
        assert not cache.probe_way(2, (way + 1) % 4, 0x7)

    def test_explicit_way_fill(self):
        cache = small_cache()
        way, _ = cache.fill(1, 0x9, way=3)
        assert way == 3
        assert cache.tag_at(1, 3) == 0x9

    def test_eviction_flag(self):
        cache = small_cache()
        cache.fill(0, 0x1, way=0)
        _, evicted = cache.fill(0, 0x2, way=0)
        assert evicted
        assert cache.find(0, 0x1) == -1

    def test_round_robin_default(self):
        cache = small_cache()
        ways = [cache.fill(0, tag)[0] for tag in range(1, 6)]
        assert ways == [0, 1, 2, 3, 0]

    def test_negative_tag_rejected(self):
        cache = small_cache()
        with pytest.raises(CacheConfigError):
            cache.fill(0, -2)


class TestGenerations:
    def test_generation_bumps_on_fill(self):
        cache = small_cache()
        g0 = cache.generation(0, 1)
        cache.fill(0, 0x5, way=1)
        assert cache.generation(0, 1) == g0 + 1
        cache.fill(0, 0x6, way=1)
        assert cache.generation(0, 1) == g0 + 2

    def test_generation_identifies_line(self):
        cache = small_cache()
        cache.fill(0, 0x5, way=1)
        generation = cache.generation(0, 1)
        cache.fill(0, 0x5, way=2)  # a different physical line
        assert cache.generation(0, 1) == generation  # untouched


class TestIntrospection:
    def test_occupancy(self):
        cache = small_cache()
        assert cache.occupancy() == 0.0
        cache.fill(0, 1)
        cache.fill(1, 2)
        assert cache.occupancy() == pytest.approx(2 / 16)

    def test_resident_lines(self):
        cache = small_cache()
        cache.fill(3, 0xA, way=2)
        assert cache.resident_lines() == [(3, 2, 0xA)]

    def test_invalidate_all(self):
        cache = small_cache()
        cache.fill(0, 1)
        cache.invalidate_all()
        assert cache.occupancy() == 0.0

    def test_duplicate_tag_detection(self):
        cache = small_cache()
        cache.fill(0, 0x5, way=0)
        cache.fill(0, 0x5, way=1)
        with pytest.raises(CacheConfigError, match="duplicate tag"):
            cache.assert_no_duplicate_tags()

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)), max_size=60))
    @settings(max_examples=30)
    def test_find_consistent_with_resident(self, fills):
        cache = small_cache()
        for set_index, tag in fills:
            cache.fill(set_index, tag)
        for set_index, way, tag in cache.resident_lines():
            found = cache.find(set_index, tag)
            # the tag is resident; find returns *a* way holding it
            assert cache.tag_at(set_index, found) == tag
