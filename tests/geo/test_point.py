"""Unit tests for spherical point arithmetic."""

import math

import pytest

from repro.geo import EARTH_RADIUS_METERS, LatLng


def _close(a, b, tolerance_radians):
    """Both coordinates within ``tolerance_radians``."""
    return (
        abs(a.lat_radians - b.lat_radians) <= tolerance_radians
        and abs(a.lng_radians - b.lng_radians) <= tolerance_radians
    )


class TestConstruction:
    def test_from_degrees_roundtrip(self):
        point = LatLng.from_degrees(37.7749, -122.4194)
        assert point.lat_degrees == pytest.approx(37.7749)
        assert point.lng_degrees == pytest.approx(-122.4194)

    def test_constructor_takes_radians(self):
        point = LatLng(math.pi / 4, -math.pi / 2)
        assert point.lat_degrees == pytest.approx(45.0)
        assert point.lng_degrees == pytest.approx(-90.0)

    @pytest.mark.parametrize(
        "lat, lng", [(0.0, 0.0), (37.77, -122.42), (-89.9, 10.0), (12.0, 179.0)]
    )
    def test_to_xyz_is_unit_vector(self, lat, lng):
        x, y, z = LatLng.from_degrees(lat, lng).to_xyz()
        assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-12)

    def test_xyz_roundtrip(self):
        point = LatLng.from_degrees(51.5, -0.12)
        recovered = LatLng.from_xyz(*point.to_xyz())
        assert _close(recovered, point, 1e-12)

    def test_xyz_accepts_unnormalised_vector(self):
        point = LatLng.from_xyz(2.0, 0.0, 0.0)
        assert point.lat_degrees == pytest.approx(0.0)
        assert point.lng_degrees == pytest.approx(0.0)

    def test_is_valid(self):
        assert LatLng.from_degrees(90.0, 180.0).is_valid()
        assert not LatLng.from_degrees(91.0, 0.0).is_valid()
        assert not LatLng.from_degrees(0.0, 181.0).is_valid()


class TestDistance:
    def test_zero_distance_to_self(self):
        point = LatLng.from_degrees(10.0, 20.0)
        assert point.distance_meters(point) == 0.0

    def test_known_distance_sf_to_la(self):
        sf = LatLng.from_degrees(37.7749, -122.4194)
        la = LatLng.from_degrees(34.0522, -118.2437)
        # Great-circle distance is ~559 km.
        assert sf.distance_meters(la) == pytest.approx(559_000, rel=0.01)

    def test_quarter_circumference(self):
        equator = LatLng.from_degrees(0.0, 0.0)
        pole = LatLng.from_degrees(90.0, 0.0)
        expected = math.pi / 2 * EARTH_RADIUS_METERS
        assert equator.distance_meters(pole) == pytest.approx(expected, rel=1e-9)

    def test_antipodal_angle_is_pi(self):
        a = LatLng.from_degrees(20.0, 30.0)
        b = LatLng.from_degrees(-20.0, -150.0)
        assert a.angle_to(b) == pytest.approx(math.pi, abs=1e-9)

    def test_symmetry(self):
        a = LatLng.from_degrees(48.85, 2.35)
        b = LatLng.from_degrees(40.71, -74.0)
        assert a.distance_meters(b) == pytest.approx(b.distance_meters(a))

    def test_small_distance_precision(self):
        a = LatLng.from_degrees(37.0, -122.0)
        b = LatLng.from_degrees(37.00001, -122.0)
        # ~1.11 m of latitude.
        assert a.distance_meters(b) == pytest.approx(1.113, rel=0.01)


class TestDestination:
    def test_destination_north(self):
        start = LatLng.from_degrees(0.0, 0.0)
        end = start.destination(0.0, 111_320.0)
        assert end.lat_degrees == pytest.approx(1.0, abs=0.01)
        assert end.lng_degrees == pytest.approx(0.0, abs=1e-9)

    def test_destination_distance_consistency(self):
        start = LatLng.from_degrees(37.0, -122.0)
        for bearing in (0.0, 1.0, 2.5, 4.0):
            end = start.destination(bearing, 5_000.0)
            assert start.distance_meters(end) == pytest.approx(5_000.0, rel=1e-6)

    def test_destination_wraps_longitude(self):
        start = LatLng.from_degrees(0.0, 179.9)
        end = start.destination(math.pi / 2, 50_000.0)
        assert -180.0 <= end.lng_degrees <= 180.0


class TestInterpolate:
    def test_endpoints(self):
        a = LatLng.from_degrees(10.0, 10.0)
        b = LatLng.from_degrees(20.0, 20.0)
        assert _close(a.interpolate(b, 0.0), a, 1e-9)
        assert _close(a.interpolate(b, 1.0), b, 1e-9)

    def test_midpoint_equidistant(self):
        a = LatLng.from_degrees(0.0, 0.0)
        b = LatLng.from_degrees(0.0, 90.0)
        mid = a.interpolate(b, 0.5)
        assert a.distance_meters(mid) == pytest.approx(b.distance_meters(mid), rel=1e-9)

    def test_interpolate_identical_points(self):
        a = LatLng.from_degrees(5.0, 5.0)
        assert _close(a.interpolate(a, 0.7), a, 1e-9)

    def test_fraction_scales_distance(self):
        a = LatLng.from_degrees(37.0, -122.0)
        b = LatLng.from_degrees(38.0, -121.0)
        total = a.distance_meters(b)
        quarter = a.interpolate(b, 0.25)
        assert a.distance_meters(quarter) == pytest.approx(total / 4, rel=1e-6)


class TestDunder:
    def test_equality_and_hash(self):
        a = LatLng.from_degrees(1.0, 2.0)
        b = LatLng.from_degrees(1.0, 2.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != LatLng.from_degrees(1.0, 2.1)

    def test_iteration_yields_radians(self):
        point = LatLng.from_degrees(90.0, 0.0)
        lat, lng = point
        assert lat == pytest.approx(math.pi / 2)
        assert lng == 0.0

    def test_repr_contains_degrees(self):
        assert "37.77" in repr(LatLng.from_degrees(37.7749, -122.4194))
