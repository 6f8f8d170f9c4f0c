"""Temporal windowing.

SLIM splits the time domain into fixed-width, half-open windows
``[t0 + k*w, t0 + (k+1)*w)`` (Sec. 2.3).  A :class:`Windowing` maps record
timestamps to window indices; the *leaf* windows of every mobility
history in a linkage run share one ``Windowing`` so that "same temporal
window" (the ``T`` predicate of Eq. 1) is a simple index comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Windowing"]


@dataclass(frozen=True, slots=True)
class Windowing:
    """A uniform partition of time into leaf windows.

    Parameters
    ----------
    origin:
        Timestamp of the left edge of window 0 (POSIX seconds).
    width_seconds:
        Width of each leaf window (the paper's default is 15 minutes).
    """

    origin: float
    width_seconds: float

    def __post_init__(self) -> None:
        if self.width_seconds <= 0:
            raise ValueError(f"window width must be positive, got {self.width_seconds}")

    @classmethod
    def minutes(cls, origin: float, width_minutes: float) -> "Windowing":
        """Convenience constructor taking the width in minutes, the unit the
        paper quotes everywhere."""
        return cls(origin, width_minutes * 60.0)

    def index_of(self, timestamp: float) -> int:
        """Index of the window containing ``timestamp``.

        Negative indices are legal (timestamps before the origin); callers
        that build histories clamp their record streams first.
        """
        return int((timestamp - self.origin) // self.width_seconds)

    def aligned(self, other: "Windowing") -> bool:
        """True when the two windowings produce identical partitions."""
        return self.origin == other.origin and self.width_seconds == other.width_seconds


def common_windowing(
    time_ranges: Tuple[Tuple[float, float], ...], width_seconds: float
) -> Windowing:
    """Build the shared windowing for a linkage run.

    The origin is the earliest record timestamp across the datasets, so both
    datasets index windows identically — a precondition for the ``T``
    predicate of Eq. 1 and for comparable LSH signatures ("the queries span
    the same time period with the data", Sec. 4).
    """
    if not time_ranges:
        raise ValueError("at least one time range is required")
    origin = min(start for start, _ in time_ranges)
    return Windowing(origin, width_seconds)
