"""Property-based tests for the spatial grid (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import CellId, LatLng

# Stay away from the exact poles where longitude degenerates.
lat_strategy = st.floats(min_value=-84.9, max_value=84.9, allow_nan=False)
lng_strategy = st.floats(min_value=-179.9, max_value=179.9, allow_nan=False)
level_strategy = st.integers(min_value=0, max_value=30)


@given(lat=lat_strategy, lng=lng_strategy, level=level_strategy)
@settings(max_examples=150, deadline=None)
def test_cell_contains_its_point_leaf(lat, lng, level):
    """A cell at any level contains the leaf cell of the point it was
    derived from."""
    point = LatLng.from_degrees(lat, lng)
    leaf = CellId.from_lat_lng(point, 30)
    cell = CellId.from_lat_lng(point, level)
    assert cell.contains(leaf)


@given(lat=lat_strategy, lng=lng_strategy, level=st.integers(min_value=1, max_value=30))
@settings(max_examples=150, deadline=None)
def test_parent_chain_is_consistent(lat, lng, level):
    """parent(level-1) is one level up and contains the cell."""
    cell = CellId.from_degrees(lat, lng, level)
    parent = cell.parent(level - 1)
    assert parent.level() == level - 1
    assert parent.contains(cell)


@given(lat=lat_strategy, lng=lng_strategy, level=st.integers(min_value=0, max_value=29))
@settings(max_examples=100, deadline=None)
def test_exactly_one_child_contains_point(lat, lng, level):
    """The four children partition the parent: the generating point falls in
    exactly one of them."""
    point = LatLng.from_degrees(lat, lng)
    cell = CellId.from_lat_lng(point, level)
    finer = CellId.from_lat_lng(point, level + 1)
    containing = [child for child in cell.children() if child == finer]
    assert len(containing) == 1


@given(lat=lat_strategy, lng=lng_strategy, level=st.integers(min_value=2, max_value=28))
@settings(max_examples=100, deadline=None)
def test_center_distance_bounded_by_circumradius(lat, lng, level):
    """The generating point lies within the circumradius of its cell.

    The absolute slack covers haversine rounding noise: at level 28 a
    cell's circumradius is ~2 cm, and two great-circle evaluations on an
    Earth-sized sphere can disagree by a few 1e-10 m — a purely numerical
    overshoot the relative tolerance alone cannot absorb.
    """
    point = LatLng.from_degrees(lat, lng)
    cell = CellId.from_lat_lng(point, level)
    bound = cell.circumradius_meters() * (1 + 1e-9) + 1e-6
    assert cell.center().distance_meters(point) <= bound


@given(lat=lat_strategy, lng=lng_strategy, level=level_strategy)
@settings(max_examples=100, deadline=None)
def test_token_encodes_id(lat, lng, level):
    cell = CellId.from_degrees(lat, lng, level)
    assert int(cell.to_token().ljust(16, "0"), 16) == cell.id


@given(
    lat1=lat_strategy,
    lng1=lng_strategy,
    lat2=lat_strategy,
    lng2=lng_strategy,
    level=st.integers(min_value=4, max_value=20),
)
@settings(max_examples=100, deadline=None)
def test_cell_distance_lower_bounds_point_distance(lat1, lng1, lat2, lng2, level):
    """Minimum cell distance never exceeds the distance between points in
    the cells (it is a lower bound by construction)."""
    p1 = LatLng.from_degrees(lat1, lng1)
    p2 = LatLng.from_degrees(lat2, lng2)
    c1 = CellId.from_lat_lng(p1, level)
    c2 = CellId.from_lat_lng(p2, level)
    assert c1.distance_meters(c2) <= p1.distance_meters(p2) + 1e-6


@given(
    lat1=lat_strategy,
    lng1=lng_strategy,
    lat2=lat_strategy,
    lng2=lng_strategy,
)
@settings(max_examples=100, deadline=None)
def test_haversine_triangle_inequality_via_origin(lat1, lng1, lat2, lng2):
    """Distance obeys the triangle inequality through a third point."""
    a = LatLng.from_degrees(lat1, lng1)
    b = LatLng.from_degrees(lat2, lng2)
    origin = LatLng.from_degrees(0.0, 0.0)
    assert a.distance_meters(b) <= a.distance_meters(origin) + origin.distance_meters(
        b
    ) + 1e-6


@given(lat=lat_strategy, lng=lng_strategy, bearing=st.floats(0, 2 * math.pi), meters=st.floats(1.0, 2e5))
@settings(max_examples=100, deadline=None)
def test_destination_distance(lat, lng, bearing, meters):
    """Travelling d metres lands exactly d metres away."""
    start = LatLng.from_degrees(lat, lng)
    end = start.destination(bearing, meters)
    assert math.isclose(start.distance_meters(end), meters, rel_tol=1e-5)
