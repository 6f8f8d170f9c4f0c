"""Vectorised lat/lng -> cell-id conversion.

The synthetic workload generators produce hundreds of thousands of records;
converting each through :meth:`repro.geo.cell.CellId.from_lat_lng` would
dominate benchmark setup time.  This module re-implements the projection and
Morton encoding from :mod:`repro.geo.projection` / :mod:`repro.geo.cell`
with numpy, producing identical ids (property-tested against the scalar
path in ``tests/geo/test_batch.py``).
"""

from __future__ import annotations

import numpy as np

from .projection import IJ_SIZE, MAX_LEVEL

__all__ = ["cell_ids_from_degrees"]

# 8-bit -> 16-bit Morton spread table as a numpy array (see repro.geo.cell).
_SPREAD_NP = np.zeros(256, dtype=np.uint64)
for _byte in range(256):
    _spread = 0
    for _bit in range(8):
        if _byte & (1 << _bit):
            _spread |= 1 << (2 * _bit)
    _SPREAD_NP[_byte] = _spread


def _interleave_np(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Vectorised Morton interleave of two uint64 coordinate arrays."""
    morton = np.zeros(i.shape, dtype=np.uint64)
    for chunk in range(4):
        shift = np.uint64(8 * chunk)
        out_shift = np.uint64(16 * chunk)
        i_bytes = (i >> shift) & np.uint64(0xFF)
        j_bytes = (j >> shift) & np.uint64(0xFF)
        part = (_SPREAD_NP[i_bytes] << np.uint64(1)) | _SPREAD_NP[j_bytes]
        morton |= part << out_shift
    return morton


def _uv_to_st_np(u: np.ndarray) -> np.ndarray:
    """Vectorised inverse quadratic projection (see projection.uv_to_st)."""
    positive = u >= 0.0
    st = np.empty_like(u)
    st[positive] = 0.5 * np.sqrt(1.0 + 3.0 * u[positive])
    st[~positive] = 1.0 - 0.5 * np.sqrt(1.0 - 3.0 * u[~positive])
    return st


def parent_ids(cell_ids: np.ndarray, level: int) -> np.ndarray:
    """Vectorised :func:`repro.geo.cell.parent_id`: the ``level``
    ancestors of a uint64 array of cell ids at ``level`` or finer (a cell
    already at ``level`` is its own ancestor)."""
    lsb = np.uint64(1 << (2 * (MAX_LEVEL - level)))
    mask = ~np.uint64((int(lsb) << 1) - 1)
    return (cell_ids & mask) | lsb


def cell_ids_from_degrees(
    lat_degrees: np.ndarray, lng_degrees: np.ndarray, level: int = MAX_LEVEL
) -> np.ndarray:
    """Convert coordinate arrays to cell ids at ``level``.

    Returns a ``uint64`` array whose elements equal
    ``CellId.from_degrees(lat, lng, level).id`` for the matching inputs.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {level}")
    lat = np.radians(np.asarray(lat_degrees, dtype=np.float64))
    lng = np.radians(np.asarray(lng_degrees, dtype=np.float64))
    if lat.shape != lng.shape:
        raise ValueError("lat and lng arrays must have the same shape")

    cos_lat = np.cos(lat)
    x = cos_lat * np.cos(lng)
    y = cos_lat * np.sin(lng)
    z = np.sin(lat)

    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(
        (ax >= ay) & (ax >= az),
        np.where(x > 0, 0, 3),
        np.where(ay >= az, np.where(y > 0, 1, 4), np.where(z > 0, 2, 5)),
    ).astype(np.int64)

    u = np.empty_like(x)
    v = np.empty_like(x)
    for f, (ufn, vfn) in enumerate(
        (
            (lambda: y / x, lambda: z / x),  # face 0: +x
            (lambda: -x / y, lambda: z / y),  # face 1: +y
            (lambda: -x / z, lambda: -y / z),  # face 2: +z
            (lambda: z / x, lambda: y / x),  # face 3: -x
            (lambda: z / y, lambda: -x / y),  # face 4: -y
            (lambda: -y / z, lambda: -x / z),  # face 5: -z
        )
    ):
        mask = face == f
        if mask.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                u[mask] = ufn()[mask]
                v[mask] = vfn()[mask]

    s = _uv_to_st_np(u)
    t = _uv_to_st_np(v)
    i = np.clip(np.floor(s * IJ_SIZE), 0, IJ_SIZE - 1).astype(np.uint64)
    j = np.clip(np.floor(t * IJ_SIZE), 0, IJ_SIZE - 1).astype(np.uint64)

    morton = _interleave_np(i, j)
    leaf = (np.asarray(face, dtype=np.uint64) << np.uint64(61)) | (
        morton << np.uint64(1)
    ) | np.uint64(1)
    return leaf if level == MAX_LEVEL else parent_ids(leaf, level)
