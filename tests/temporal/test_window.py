"""Unit tests for temporal windowing."""

import pytest

from repro.temporal import Windowing, common_windowing


class TestWindowing:
    def test_index_of(self):
        windowing = Windowing(origin=1000.0, width_seconds=60.0)
        assert windowing.index_of(1000.0) == 0
        assert windowing.index_of(1059.9) == 0
        assert windowing.index_of(1060.0) == 1
        assert windowing.index_of(999.9) == -1

    def test_minutes_constructor(self):
        assert Windowing.minutes(0.0, 15.0).width_seconds == 900.0

    def test_invalid_width_raises(self):
        with pytest.raises(ValueError):
            Windowing(0.0, 0.0)
        with pytest.raises(ValueError):
            Windowing(0.0, -5.0)

    def test_aligned(self):
        a = Windowing(0.0, 10.0)
        assert a.aligned(Windowing(0.0, 10.0))
        assert not a.aligned(Windowing(1.0, 10.0))
        assert not a.aligned(Windowing(0.0, 20.0))

    @pytest.mark.parametrize("k", [-2, 0, 3, 96])
    def test_window_edges_map_to_own_index(self, k):
        windowing = Windowing(0.0, 900.0)
        assert windowing.index_of(k * 900.0) == k
        assert windowing.index_of(k * 900.0 + 899.999) == k
        assert windowing.index_of((k + 1) * 900.0) == k + 1

    def test_index_of_is_monotone(self):
        windowing = Windowing(5.0, 7.5)
        indices = [windowing.index_of(t / 4) for t in range(-100, 2000)]
        assert all(a <= b for a, b in zip(indices, indices[1:]))
        assert all(b - a <= 1 for a, b in zip(indices, indices[1:]))

    def test_minutes_equals_seconds_windowing(self):
        assert Windowing.minutes(30.0, 15.0) == Windowing(30.0, 900.0)
        assert Windowing.minutes(30.0, 15.0).aligned(Windowing(30.0, 900.0))

    def test_every_timestamp_in_its_window(self):
        windowing = Windowing(12.5, 37.0)
        for t in (12.5, 100.0, 1234.5, 9999.0):
            start = windowing.origin + windowing.index_of(t) * windowing.width_seconds
            assert start <= t < start + windowing.width_seconds


class TestCommonWindowing:
    def test_uses_earliest_start(self):
        windowing = common_windowing(((100.0, 200.0), (50.0, 300.0)), 60.0)
        assert windowing.origin == 50.0
        assert windowing.index_of(50.0) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            common_windowing((), 60.0)

    def test_single_range(self):
        windowing = common_windowing(((10.0, 20.0),), 5.0)
        assert windowing.origin == 10.0

    def test_width_carried_over(self):
        assert common_windowing(((0.0, 10.0), (3.0, 4.0)), 42.0).width_seconds == 42.0

    def test_every_range_starts_at_a_non_negative_index(self):
        ranges = ((500.0, 900.0), (120.0, 4000.0), (7200.0, 7300.0))
        windowing = common_windowing(ranges, 300.0)
        assert all(windowing.index_of(start) >= 0 for start, _ in ranges)
        assert min(windowing.index_of(start) for start, _ in ranges) == 0

    def test_invalid_width_raises(self):
        with pytest.raises(ValueError):
            common_windowing(((0.0, 10.0),), 0.0)
