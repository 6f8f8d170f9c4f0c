"""Unit tests for hierarchical grid cells."""

import pytest

from repro.geo import CellId, LatLng
from repro.geo.cell import parent_id


@pytest.fixture()
def sf_cell() -> CellId:
    return CellId.from_degrees(37.7749, -122.4194, level=12)


class TestConstruction:
    def test_leaf_by_default(self):
        cell = CellId.from_degrees(10.0, 20.0)
        assert cell.level() == 30
        assert cell.is_leaf()

    def test_level_encoding(self, sf_cell):
        assert sf_cell.level() == 12
        assert not sf_cell.is_leaf()

    @pytest.mark.parametrize("level", [0, 1, 5, 12, 20, 30])
    def test_all_levels_valid(self, level):
        cell = CellId.from_degrees(-33.86, 151.2, level)
        assert cell.is_valid()
        assert cell.level() == level

    def test_invalid_face_raises(self):
        with pytest.raises(ValueError):
            CellId.from_face_ij(6, 0, 0, 10)

    def test_invalid_level_raises(self):
        with pytest.raises(ValueError):
            CellId.from_face_ij(0, 0, 0, 31)

    def test_zero_id_invalid(self):
        assert not CellId(0).is_valid()

    def test_from_face_ij_roundtrip(self):
        cell = CellId.from_face_ij(2, 123456, 654321, 30)
        face, i, j, size = cell.to_face_ij()
        assert (face, i, j, size) == (2, 123456, 654321, 1)


class TestHierarchy:
    def test_parent_contains_child(self, sf_cell):
        for level in range(sf_cell.level()):
            assert sf_cell.parent(level).contains(sf_cell)

    def test_parent_of_same_level_is_self(self, sf_cell):
        assert sf_cell.parent(12) is sf_cell

    def test_parent_finer_raises(self, sf_cell):
        with pytest.raises(ValueError):
            sf_cell.parent(13)

    def test_children_partition(self, sf_cell):
        children = list(sf_cell.children())
        assert len(children) == 4
        assert len(set(children)) == 4
        for child in children:
            assert child.level() == 13
            assert sf_cell.contains(child)
            assert child.parent(12) == sf_cell

    def test_leaf_has_no_children(self):
        leaf = CellId.from_degrees(0.0, 0.0, 30)
        with pytest.raises(ValueError):
            leaf.child(0)

    def test_child_position_range(self, sf_cell):
        with pytest.raises(ValueError):
            sf_cell.child(4)

    def test_containment_is_not_symmetric(self, sf_cell):
        parent = sf_cell.parent(10)
        assert parent.contains(sf_cell)
        assert not sf_cell.contains(parent)

    def test_disjoint_cells_do_not_contain(self):
        a = CellId.from_degrees(37.77, -122.42, 12)
        b = CellId.from_degrees(40.71, -74.0, 12)
        assert not a.contains(b)
        assert not b.contains(a)
        assert not a.intersects(b)

    def test_intersects_ancestor(self, sf_cell):
        assert sf_cell.intersects(sf_cell.parent(8))
        assert sf_cell.parent(8).intersects(sf_cell)

    def test_children_ranges_tile_parent(self, sf_cell):
        children = list(sf_cell.children())
        assert children[0].range_min() == sf_cell.range_min()
        assert children[-1].range_max() == sf_cell.range_max()
        # Leaf ids are odd, so adjacent ranges leave no leaf id between them.
        for left, right in zip(children, children[1:]):
            assert left.range_max() + 2 == right.range_min()

    def test_point_stays_in_cell_across_levels(self):
        point = LatLng.from_degrees(48.8566, 2.3522)
        leaf = CellId.from_lat_lng(point, 30)
        for level in range(0, 30, 3):
            assert CellId.from_lat_lng(point, level).contains(leaf)


class TestRawIdHelpers:
    def test_parent_id_matches_object_api(self, sf_cell):
        assert parent_id(sf_cell.id, 8) == sf_cell.parent(8).id

    def test_parent_id_at_every_level(self, sf_cell):
        for level in range(sf_cell.level() + 1):
            assert parent_id(sf_cell.id, level) == sf_cell.parent(level).id

    def test_parent_id_at_own_level_is_identity(self, sf_cell):
        assert parent_id(sf_cell.id, 12) == sf_cell.id


class TestGeometry:
    def test_center_inside_cell(self, sf_cell):
        center_cell = CellId.from_lat_lng(sf_cell.center(), 12)
        assert center_cell == sf_cell

    def test_vertices_count(self, sf_cell):
        assert len(sf_cell.vertices()) == 4

    def test_circumradius_bounds_vertices(self, sf_cell):
        center = sf_cell.center()
        radius = sf_cell.circumradius_meters()
        for vertex in sf_cell.vertices():
            assert center.distance_meters(vertex) <= radius + 1e-6

    def test_same_cell_distance_zero(self, sf_cell):
        assert sf_cell.distance_meters(sf_cell) == 0.0

    def test_nested_cells_distance_zero(self, sf_cell):
        assert sf_cell.distance_meters(sf_cell.parent(8)) == 0.0

    def test_far_cells_distance_positive(self):
        sf = CellId.from_degrees(37.77, -122.42, 12)
        nyc = CellId.from_degrees(40.71, -74.0, 12)
        distance = sf.distance_meters(nyc)
        # SF-NYC is ~4,130 km; the cell bound subtracts only a few km.
        assert distance == pytest.approx(4.13e6, rel=0.02)

    def test_distance_symmetry(self):
        a = CellId.from_degrees(37.77, -122.42, 14)
        b = CellId.from_degrees(37.80, -122.25, 14)
        assert a.distance_meters(b) == pytest.approx(b.distance_meters(a))

    def test_circumradius_roughly_halves_per_level(self, sf_cell):
        ratio = sf_cell.parent(11).circumradius_meters() / sf_cell.circumradius_meters()
        assert 1.5 < ratio < 2.5

    def test_distance_is_lower_bound_of_point_distance(self):
        p1 = LatLng.from_degrees(37.77, -122.42)
        p2 = LatLng.from_degrees(37.90, -122.10)
        c1 = CellId.from_lat_lng(p1, 13)
        c2 = CellId.from_lat_lng(p2, 13)
        assert c1.distance_meters(c2) <= p1.distance_meters(p2)


class TestTokens:
    def test_token_encodes_id(self, sf_cell):
        assert int(sf_cell.to_token().ljust(16, "0"), 16) == sf_cell.id

    def test_children_have_distinct_tokens(self, sf_cell):
        tokens = {child.to_token() for child in sf_cell.children()}
        assert len(tokens) == 4
        assert sf_cell.to_token() not in tokens

    def test_token_strips_zeros(self):
        cell = CellId.from_degrees(0.0, 0.0, 4)
        assert not cell.to_token().endswith("0")

    def test_ordering(self):
        a = CellId.from_degrees(10.0, 10.0, 10)
        b = CellId.from_degrees(10.0, 10.0, 10)
        assert a <= b
        assert not (a < b)

