"""Unit tests for the cube-face projection."""

import math

import pytest

from repro.geo.projection import (
    IJ_SIZE,
    MAX_LEVEL,
    face_uv_to_xyz,
    st_to_ij,
    st_to_uv,
    uv_to_st,
    xyz_to_face_uv,
)


class TestStUv:
    def test_st_to_uv_endpoints(self):
        assert st_to_uv(0.0) == pytest.approx(-1.0)
        assert st_to_uv(0.5) == pytest.approx(0.0)
        assert st_to_uv(1.0) == pytest.approx(1.0)

    def test_uv_to_st_endpoints(self):
        assert uv_to_st(-1.0) == pytest.approx(0.0)
        assert uv_to_st(0.0) == pytest.approx(0.5)
        assert uv_to_st(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("s", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_roundtrip(self, s):
        assert uv_to_st(st_to_uv(s)) == pytest.approx(s, abs=1e-12)

    @pytest.mark.parametrize("u", [-1.0, -0.6, -0.2, 0.0, 0.4, 1.0])
    def test_uv_roundtrip(self, u):
        assert st_to_uv(uv_to_st(u)) == pytest.approx(u, abs=1e-12)

    def test_monotonic(self):
        values = [st_to_uv(s / 100) for s in range(101)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestIj:
    def test_st_to_ij_bounds(self):
        assert st_to_ij(0.0) == 0
        assert st_to_ij(1.0) == IJ_SIZE - 1  # clamped
        assert st_to_ij(0.5) == IJ_SIZE // 2

    def test_st_to_ij_clamps_below_zero(self):
        assert st_to_ij(-0.25) == 0

    def test_cell_centres_land_in_their_own_step(self):
        for i in (0, 1, 12345, IJ_SIZE - 1):
            assert st_to_ij((i + 0.5) / IJ_SIZE) == i

    def test_st_to_ij_is_monotone(self):
        steps = [st_to_ij(s / 1000) for s in range(1001)]
        assert all(a <= b for a, b in zip(steps, steps[1:]))

    def test_max_level_constant(self):
        assert MAX_LEVEL == 30
        assert IJ_SIZE == 1 << 30


class TestFaceProjection:
    @pytest.mark.parametrize("face", range(6))
    def test_face_roundtrip(self, face):
        x, y, z = face_uv_to_xyz(face, 0.3, -0.4)
        recovered_face, u, v = xyz_to_face_uv(x, y, z)
        assert recovered_face == face
        assert u == pytest.approx(0.3)
        assert v == pytest.approx(-0.4)

    def test_face_axes(self):
        assert xyz_to_face_uv(1.0, 0.0, 0.0)[0] == 0
        assert xyz_to_face_uv(0.0, 1.0, 0.0)[0] == 1
        assert xyz_to_face_uv(0.0, 0.0, 1.0)[0] == 2
        assert xyz_to_face_uv(-1.0, 0.0, 0.0)[0] == 3
        assert xyz_to_face_uv(0.0, -1.0, 0.0)[0] == 4
        assert xyz_to_face_uv(0.0, 0.0, -1.0)[0] == 5

    def test_invalid_face_raises(self):
        with pytest.raises(ValueError):
            face_uv_to_xyz(6, 0.0, 0.0)

    def test_face_center_unit_vectors(self):
        x, y, z = face_uv_to_xyz(0, 0.0, 0.0)
        assert (x, y, z) == (1.0, 0.0, 0.0)

    def test_all_directions_covered(self):
        # Any random direction must land on exactly one face with |u|,|v| <= 1.
        directions = [
            (0.5, 0.3, 0.2),
            (-0.9, 0.1, 0.4),
            (0.2, -0.8, 0.5),
            (0.1, 0.2, -0.95),
        ]
        for x, y, z in directions:
            face, u, v = xyz_to_face_uv(x, y, z)
            assert 0 <= face <= 5
            assert abs(u) <= 1.0 + 1e-12
            assert abs(v) <= 1.0 + 1e-12

    def test_projection_preserves_direction(self):
        x, y, z = 0.4, -0.5, 0.77
        face, u, v = xyz_to_face_uv(x, y, z)
        px, py, pz = face_uv_to_xyz(face, u, v)
        # Projected vector must be a positive scalar multiple of the input.
        scale = math.sqrt((px * px + py * py + pz * pz) / (x * x + y * y + z * z))
        assert px == pytest.approx(x * scale, rel=1e-9)
        assert py == pytest.approx(y * scale, rel=1e-9)
        assert pz == pytest.approx(z * scale, rel=1e-9)
