"""Cube-face projection for the hierarchical spatial grid.

The paper partitions space with Google's S2 library (Sec. 2.3).  S2 projects
the sphere onto the six faces of a circumscribed cube and then subdivides
each face as a 30-level quadtree.  This module implements that projection:

* ``xyz -> (face, u, v)``: pick the face whose axis has the largest absolute
  component, then project onto the face plane (``u``, ``v`` in ``[-1, 1]``).
* ``(u, v) <-> (s, t)``: S2's *quadratic* reprojection, which equalises cell
  areas across a face far better than a linear mapping.
* ``(s, t) <-> (i, j)``: discretisation into ``2**MAX_LEVEL`` leaf steps.

The functions are deliberately tiny and branch-light: :mod:`repro.geo.cell`
calls them once per record during history construction, and
:mod:`repro.geo.batch` re-implements the same math in vectorised numpy for
bulk conversion.
"""

from __future__ import annotations

import math
from typing import Tuple

#: Depth of the cell hierarchy.  Matches S2: leaf cells at level 30 cover
#: roughly 1 cm^2, the granularity quoted in the paper.
MAX_LEVEL = 30

#: Number of discrete (i, j) steps along one axis of a face.
IJ_SIZE = 1 << MAX_LEVEL


def st_to_uv(s: float) -> float:
    """Map ``s`` in [0, 1] to ``u`` in [-1, 1] (S2 quadratic projection)."""
    if s >= 0.5:
        return (1.0 / 3.0) * (4.0 * s * s - 1.0)
    return (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) * (1.0 - s))


def uv_to_st(u: float) -> float:
    """Inverse of :func:`st_to_uv`."""
    if u >= 0.0:
        return 0.5 * math.sqrt(1.0 + 3.0 * u)
    return 1.0 - 0.5 * math.sqrt(1.0 - 3.0 * u)


def st_to_ij(s: float) -> int:
    """Discretise ``s`` in [0, 1] to an integer cell coordinate."""
    return max(0, min(IJ_SIZE - 1, int(math.floor(s * IJ_SIZE))))


def xyz_to_face_uv(x: float, y: float, z: float) -> Tuple[int, float, float]:
    """Project a 3-vector to ``(face, u, v)``.

    Faces follow the S2 convention: 0=+x, 1=+y, 2=+z, 3=-x, 4=-y, 5=-z.
    """
    ax, ay, az = abs(x), abs(y), abs(z)
    if ax >= ay and ax >= az:
        face = 0 if x > 0 else 3
    elif ay >= az:
        face = 1 if y > 0 else 4
    else:
        face = 2 if z > 0 else 5
    if face == 0:
        return face, y / x, z / x
    if face == 1:
        return face, -x / y, z / y
    if face == 2:
        return face, -x / z, -y / z
    if face == 3:
        return face, z / x, y / x
    if face == 4:
        return face, z / y, -x / y
    return face, -y / z, -x / z


def face_uv_to_xyz(face: int, u: float, v: float) -> Tuple[float, float, float]:
    """Inverse of :func:`xyz_to_face_uv` (the result is not normalised)."""
    if face == 0:
        return 1.0, u, v
    if face == 1:
        return -u, 1.0, v
    if face == 2:
        return -u, -v, 1.0
    if face == 3:
        return -1.0, -v, -u
    if face == 4:
        return v, -1.0, -u
    if face == 5:
        return v, u, -1.0
    raise ValueError(f"face must be in 0..5, got {face}")
