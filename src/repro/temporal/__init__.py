"""Temporal substrate: uniform windowing.

Implements the temporal half of the paper's mobility-history representation
(Sec. 2.3): :class:`~repro.temporal.window.Windowing` assigns records to
half-open leaf windows, shared by every history of a linkage run.
"""

from .window import Windowing, common_windowing

__all__ = ["Windowing", "common_windowing"]
