"""Spherical point arithmetic.

The paper measures all spatial quantities as great-circle distances on the
Earth's surface (e.g. the *runaway distance* ``R`` in Eq. 1).  This module
provides the small amount of spherical geometry SLIM needs: a ``LatLng``
point type, conversion to/from unit 3-vectors, and haversine distances.

All angles are stored in radians internally; constructors and accessors are
explicit about units.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

#: Mean Earth radius in metres (the value used by the S2 library).
EARTH_RADIUS_METERS = 6_371_010.0

_DEG_TO_RAD = math.pi / 180.0
_RAD_TO_DEG = 180.0 / math.pi


class LatLng:
    """A point on the unit sphere, stored as latitude/longitude in radians.

    Instances are immutable and hashable.  Use :meth:`from_degrees` for the
    common case; the bare constructor takes radians.

    >>> sf = LatLng.from_degrees(37.7749, -122.4194)
    >>> round(sf.lat_degrees, 4)
    37.7749
    """

    __slots__ = ("_lat", "_lng")

    def __init__(self, lat_radians: float, lng_radians: float) -> None:
        self._lat = float(lat_radians)
        self._lng = float(lng_radians)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_degrees(cls, lat: float, lng: float) -> "LatLng":
        """Build a point from latitude/longitude in degrees."""
        return cls(lat * _DEG_TO_RAD, lng * _DEG_TO_RAD)

    @classmethod
    def from_xyz(cls, x: float, y: float, z: float) -> "LatLng":
        """Build a point from a (not necessarily unit) 3-vector."""
        lat = math.atan2(z, math.hypot(x, y))
        lng = math.atan2(y, x)
        return cls(lat, lng)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def lat_radians(self) -> float:
        """Latitude in radians."""
        return self._lat

    @property
    def lng_radians(self) -> float:
        """Longitude in radians."""
        return self._lng

    @property
    def lat_degrees(self) -> float:
        """Latitude in degrees."""
        return self._lat * _RAD_TO_DEG

    @property
    def lng_degrees(self) -> float:
        """Longitude in degrees."""
        return self._lng * _RAD_TO_DEG

    def is_valid(self) -> bool:
        """True when latitude is in [-90, 90] and longitude in [-180, 180]."""
        return (
            abs(self._lat) <= math.pi / 2 + 1e-12
            and abs(self._lng) <= math.pi + 1e-12
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def to_xyz(self) -> Tuple[float, float, float]:
        """Return the unit 3-vector for this point."""
        cos_lat = math.cos(self._lat)
        return (
            cos_lat * math.cos(self._lng),
            cos_lat * math.sin(self._lng),
            math.sin(self._lat),
        )

    def angle_to(self, other: "LatLng") -> float:
        """Central angle to ``other`` in radians (haversine formula).

        The haversine formulation is numerically stable for both very small
        and near-antipodal separations, which matters because SLIM compares
        cells that are frequently metres apart.
        """
        dlat = other._lat - self._lat
        dlng = other._lng - self._lng
        sin_dlat = math.sin(dlat / 2.0)
        sin_dlng = math.sin(dlng / 2.0)
        h = (
            sin_dlat * sin_dlat
            + math.cos(self._lat) * math.cos(other._lat) * sin_dlng * sin_dlng
        )
        return 2.0 * math.asin(min(1.0, math.sqrt(h)))

    def distance_meters(self, other: "LatLng") -> float:
        """Great-circle distance to ``other`` in metres."""
        return self.angle_to(other) * EARTH_RADIUS_METERS

    def destination(self, bearing_radians: float, distance_meters: float) -> "LatLng":
        """Return the point reached by travelling along a great circle.

        ``bearing_radians`` is measured clockwise from true north.  Used by
        the synthetic trace generators to move entities at bounded speed,
        which is what makes alibi bins physically meaningful.
        """
        delta = distance_meters / EARTH_RADIUS_METERS
        sin_lat = (
            math.sin(self._lat) * math.cos(delta)
            + math.cos(self._lat) * math.sin(delta) * math.cos(bearing_radians)
        )
        lat2 = math.asin(max(-1.0, min(1.0, sin_lat)))
        y = math.sin(bearing_radians) * math.sin(delta) * math.cos(self._lat)
        x = math.cos(delta) - math.sin(self._lat) * math.sin(lat2)
        lng2 = self._lng + math.atan2(y, x)
        # normalise longitude to [-pi, pi]
        lng2 = (lng2 + math.pi) % (2.0 * math.pi) - math.pi
        return LatLng(lat2, lng2)

    def interpolate(self, other: "LatLng", fraction: float) -> "LatLng":
        """Spherical linear interpolation between two points.

        ``fraction`` = 0 returns ``self``; 1 returns ``other``.
        """
        angle = self.angle_to(other)
        if angle < 1e-12:
            return self
        sin_angle = math.sin(angle)
        a = math.sin((1.0 - fraction) * angle) / sin_angle
        b = math.sin(fraction * angle) / sin_angle
        x1, y1, z1 = self.to_xyz()
        x2, y2, z2 = other.to_xyz()
        return LatLng.from_xyz(a * x1 + b * x2, a * y1 + b * y2, a * z1 + b * z2)

    # ------------------------------------------------------------------
    # dunder methods
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[float]:
        yield self._lat
        yield self._lng

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatLng):
            return NotImplemented
        return self._lat == other._lat and self._lng == other._lng

    def __hash__(self) -> int:
        return hash((self._lat, self._lng))

    def __repr__(self) -> str:
        return f"LatLng({self.lat_degrees:.6f}, {self.lng_degrees:.6f})"
