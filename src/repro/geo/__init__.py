"""Spatial substrate: spherical points and an S2-like hierarchical grid.

This package replaces the Google S2 dependency of the paper (Sec. 2.3) with
a self-contained implementation covering everything SLIM needs:

* :class:`~repro.geo.point.LatLng` — spherical points, haversine distances,
  great-circle travel (used by the synthetic trace generators).
* :class:`~repro.geo.cell.CellId` — 64-bit hierarchical cells with level
  encoded in the trailing bit; parent/child/containment by bit arithmetic.
* :func:`~repro.geo.batch.cell_ids_from_degrees` — vectorised bulk
  conversion for workload generation.
"""

from .batch import cell_ids_from_degrees
from .cell import CellId
from .coverage import all_neighbors, cover_cap, edge_neighbors, point_to_cell_distance
from .point import EARTH_RADIUS_METERS, LatLng
from .projection import MAX_LEVEL

__all__ = [
    "CellId",
    "LatLng",
    "EARTH_RADIUS_METERS",
    "MAX_LEVEL",
    "cell_ids_from_degrees",
    "edge_neighbors",
    "all_neighbors",
    "cover_cap",
    "point_to_cell_distance",
]
