"""Hierarchical spatial grid cells (S2-like, Morton-ordered).

SLIM bins record locations into grid cells drawn from a 31-level hierarchy
(level 0 = a whole cube face, level 30 = ~1 cm^2 leaves), mirroring the S2
library the paper uses.  A cell is a 64-bit integer:

``[3 bits face | 2 bits per level of Morton position | 1 sentinel bit | 0s]``

The sentinel (lowest set bit) encodes the level, so parent/child navigation
and containment tests are pure bit arithmetic — the property the mobility
history and LSH layers rely on to re-bin records at coarser spatial detail
without touching raw coordinates.

Divergence from Google S2 (listed with the other substitutions in
docs/ARCHITECTURE.md, "Paper figures"): children are ordered by
Morton (Z-order) rather than a Hilbert curve.  SLIM never depends on sibling
ordering — only on containment, centres and distances — so linkage behaviour
is unaffected, but tokens are not interchangeable with S2 tokens.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .point import LatLng
from .projection import (
    IJ_SIZE,
    MAX_LEVEL,
    face_uv_to_xyz,
    st_to_ij,
    st_to_uv,
    uv_to_st,
    xyz_to_face_uv,
)

__all__ = ["CellId", "MAX_LEVEL", "parent_id"]

# ----------------------------------------------------------------------
# Morton interleave tables: spread 8 bits of a coordinate across 16 bits.
# ----------------------------------------------------------------------
_SPREAD: List[int] = []
for _byte in range(256):
    _spread = 0
    for _bit in range(8):
        if _byte & (1 << _bit):
            _spread |= 1 << (2 * _bit)
    _SPREAD.append(_spread)

# Reverse table: compact the even bits of a 16-bit word into 8 bits.
_COMPACT: List[int] = [0] * 65536
for _word in range(65536):
    _compact = 0
    for _bit in range(8):
        if _word & (1 << (2 * _bit)):
            _compact |= 1 << _bit
    _COMPACT[_word] = _compact


def _interleave(i: int, j: int) -> int:
    """Interleave two 30-bit coordinates: bit k of ``j`` goes to bit 2k,
    bit k of ``i`` to bit 2k+1."""
    return (
        (_SPREAD[i & 0xFF] << 1 | _SPREAD[j & 0xFF])
        | (_SPREAD[(i >> 8) & 0xFF] << 1 | _SPREAD[(j >> 8) & 0xFF]) << 16
        | (_SPREAD[(i >> 16) & 0xFF] << 1 | _SPREAD[(j >> 16) & 0xFF]) << 32
        | (_SPREAD[(i >> 24) & 0xFF] << 1 | _SPREAD[(j >> 24) & 0xFF]) << 48
    )


def _deinterleave(morton: int) -> Tuple[int, int]:
    """Inverse of :func:`_interleave`: returns ``(i, j)``."""
    j = (
        _COMPACT[morton & 0xFFFF]
        | _COMPACT[(morton >> 16) & 0xFFFF] << 8
        | _COMPACT[(morton >> 32) & 0xFFFF] << 16
        | _COMPACT[(morton >> 48) & 0xFFFF] << 24
    )
    mi = morton >> 1
    i = (
        _COMPACT[mi & 0xFFFF]
        | _COMPACT[(mi >> 16) & 0xFFFF] << 8
        | _COMPACT[(mi >> 32) & 0xFFFF] << 16
        | _COMPACT[(mi >> 48) & 0xFFFF] << 24
    )
    return i, j


# Caches shared by all CellId instances.  Experiments touch at most a few
# hundred thousand distinct cells, so unbounded dicts are fine and much
# faster than functools.lru_cache for this access pattern.
_CENTER_CACHE: dict = {}
_RADIUS_CACHE: dict = {}


class CellId:
    """An immutable cell in the hierarchical spatial grid.

    >>> cell = CellId.from_lat_lng(LatLng.from_degrees(37.77, -122.42), level=12)
    >>> cell.level()
    12
    >>> cell.parent(10).contains(cell)
    True
    """

    __slots__ = ("_id",)

    def __init__(self, cell_id: int) -> None:
        self._id = int(cell_id)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_face_ij(cls, face: int, i: int, j: int, level: int = MAX_LEVEL) -> "CellId":
        """Build a cell from face and leaf-granularity (i, j) coordinates."""
        if not 0 <= face <= 5:
            raise ValueError(f"face must be in 0..5, got {face}")
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {level}")
        morton = _interleave(i, j)
        leaf = (face << 61) | (morton << 1) | 1
        if level == MAX_LEVEL:
            return cls(leaf)
        lsb = 1 << (2 * (MAX_LEVEL - level))
        return cls((leaf & ~((lsb << 1) - 1)) | lsb)

    @classmethod
    def from_lat_lng(cls, point: LatLng, level: int = MAX_LEVEL) -> "CellId":
        """Build the cell at ``level`` containing ``point``."""
        x, y, z = point.to_xyz()
        face, u, v = xyz_to_face_uv(x, y, z)
        i = st_to_ij(uv_to_st(u))
        j = st_to_ij(uv_to_st(v))
        return cls.from_face_ij(face, i, j, level)

    @classmethod
    def from_degrees(cls, lat: float, lng: float, level: int = MAX_LEVEL) -> "CellId":
        """Convenience: build the cell containing (lat, lng) in degrees."""
        return cls.from_lat_lng(LatLng.from_degrees(lat, lng), level)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def id(self) -> int:
        """The raw 64-bit integer id."""
        return self._id

    def is_valid(self) -> bool:
        """True for well-formed ids: face in range, sentinel at an even
        bit offset, no bits below the sentinel."""
        if self._id <= 0 or (self._id >> 61) > 5:
            return False
        lsb = self._id & -self._id
        offset = lsb.bit_length() - 1
        return offset % 2 == 0 and offset <= 2 * MAX_LEVEL

    def face(self) -> int:
        """The cube face (0..5) this cell lies on."""
        return self._id >> 61

    def lsb(self) -> int:
        """The lowest set bit (the level sentinel)."""
        return self._id & -self._id

    def level(self) -> int:
        """The subdivision level of this cell (0..30)."""
        return MAX_LEVEL - (self.lsb().bit_length() - 1) // 2

    def is_leaf(self) -> bool:
        """True for level-30 cells."""
        return bool(self._id & 1)

    def parent(self, level: int) -> "CellId":
        """The ancestor of this cell at ``level`` (must not exceed own level)."""
        if level > self.level():
            raise ValueError(
                f"parent level {level} is finer than cell level {self.level()}"
            )
        if level == self.level():
            return self
        lsb = 1 << (2 * (MAX_LEVEL - level))
        return CellId((self._id & ~((lsb << 1) - 1)) | lsb)

    def child(self, position: int) -> "CellId":
        """The child at Morton position 0..3 (cell must not be a leaf)."""
        if self.is_leaf():
            raise ValueError("leaf cells have no children")
        if not 0 <= position <= 3:
            raise ValueError(f"child position must be 0..3, got {position}")
        lsb = self.lsb()
        child_lsb = lsb >> 2
        return CellId((self._id - lsb) | (position * (child_lsb << 1)) | child_lsb)

    def children(self) -> Iterator["CellId"]:
        """Iterate over the four children in Morton order."""
        for position in range(4):
            yield self.child(position)

    def range_min(self) -> int:
        """Smallest leaf id contained in this cell."""
        return self._id - self.lsb() + 1

    def range_max(self) -> int:
        """Largest leaf id contained in this cell."""
        return self._id + self.lsb() - 1

    def contains(self, other: "CellId") -> bool:
        """True when ``other`` is this cell or a descendant of it."""
        return self.range_min() <= other._id <= self.range_max()

    def intersects(self, other: "CellId") -> bool:
        """True when one cell contains the other."""
        return self.contains(other) or other.contains(self)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def to_face_ij(self) -> Tuple[int, int, int, int]:
        """Return ``(face, i_min, j_min, size)`` at leaf granularity."""
        lsb = self.lsb()
        pos = self._id & ((1 << 61) - 1)
        morton = (pos - lsb) >> 1
        i, j = _deinterleave(morton)
        size = 1 << (MAX_LEVEL - self.level())
        return self.face(), i, j, size

    def center(self) -> LatLng:
        """The centre point of this cell (cached)."""
        cached = _CENTER_CACHE.get(self._id)
        if cached is not None:
            return cached
        face, i, j, size = self.to_face_ij()
        s = (i + size * 0.5) / IJ_SIZE
        t = (j + size * 0.5) / IJ_SIZE
        x, y, z = face_uv_to_xyz(face, st_to_uv(s), st_to_uv(t))
        center = LatLng.from_xyz(x, y, z)
        _CENTER_CACHE[self._id] = center
        return center

    def vertices(self) -> List[LatLng]:
        """The four corner points of this cell."""
        face, i, j, size = self.to_face_ij()
        corners = []
        for di, dj in ((0, 0), (size, 0), (size, size), (0, size)):
            s = (i + di) / IJ_SIZE
            t = (j + dj) / IJ_SIZE
            x, y, z = face_uv_to_xyz(face, st_to_uv(s), st_to_uv(t))
            corners.append(LatLng.from_xyz(x, y, z))
        return corners

    def circumradius_meters(self) -> float:
        """Distance from the centre to the farthest corner (cached)."""
        cached = _RADIUS_CACHE.get(self._id)
        if cached is not None:
            return cached
        center = self.center()
        radius = max(center.distance_meters(v) for v in self.vertices())
        _RADIUS_CACHE[self._id] = radius
        return radius

    def distance_meters(self, other: "CellId") -> float:
        """Approximate minimum great-circle distance between two cells.

        This is the ``d`` of Eq. 1.  Overlapping cells (one containing the
        other, or identical) are at distance 0; otherwise we lower-bound the
        separation by the centre distance minus both circumradii, clamped at
        zero.  The bound is exact for identical cells and tight for the
        same-level disjoint cells SLIM compares.
        """
        if self.intersects(other):
            return 0.0
        separation = (
            self.center().distance_meters(other.center())
            - self.circumradius_meters()
            - other.circumradius_meters()
        )
        return max(0.0, separation)

    # ------------------------------------------------------------------
    # encoding / dunder methods
    # ------------------------------------------------------------------
    def to_token(self) -> str:
        """Compact hex token (trailing zeros stripped, like S2 tokens)."""
        token = format(self._id, "016x").rstrip("0")
        return token if token else "X"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellId):
            return NotImplemented
        return self._id == other._id

    def __lt__(self, other: "CellId") -> bool:
        return self._id < other._id

    def __le__(self, other: "CellId") -> bool:
        return self._id <= other._id

    def __hash__(self) -> int:
        return hash(self._id)

    def __repr__(self) -> str:
        return f"CellId({self.to_token()}, level={self.level()})"


def parent_id(cell_id: int, level: int) -> int:
    """Raw-integer fast path for :meth:`CellId.parent`.

    Mobility histories store cell ids as bare integers for speed and memory;
    re-binning a history at a coarser spatial level (similarity level, LSH
    signature level) runs this in a tight loop.
    """
    lsb = 1 << (2 * (MAX_LEVEL - level))
    return (cell_id & ~((lsb << 1) - 1)) | lsb

