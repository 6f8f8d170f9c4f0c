"""Dominating-cell signatures for mobility histories (Sec. 4).

Shingle/min-hash LSH is too strict for sparse, asynchronous mobility data,
so the paper builds signatures from *dominating grid cells*: for each
non-overlapping query window (a fixed number of leaf windows), the cell
holding the most of the entity's records.  Two entities that are the same
person tend to share dominating cells even when their services sampled
different instants.

Signatures must be *structurally aligned* across all histories in a run:
the k-th slot of every signature answers the same query.  Empty query
windows produce a ``None`` placeholder that keeps alignment but is skipped
when hashing.

:func:`signature_matrix` is the array equivalent of the paper's
formulation (one range query per slot against each history's
hierarchical count tree, Fig. 1): the query windows of a
:class:`SignatureSpec` *partition* the window axis, so every leaf feeds
exactly one slot and all signatures of a dataset fall out of one
sort-and-reduce over its histories' joined columns — no per-entity
structure is built.  The tree formulation is kept test-side as the
scalar oracle the matrix is checked against, row for row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from ..core.history import MobilityHistory, leaf_columns, run_starts
from ..geo.batch import parent_ids

__all__ = [
    "SignatureSpec",
    "signature_matrix",
    "signature_similarity",
]


@dataclass(frozen=True)
class SignatureSpec:
    """The shared signature layout for one linkage run.

    Attributes
    ----------
    start_window:
        First leaf-window index covered (0 under a common windowing).
    total_windows:
        Number of leaf windows spanned by the run's data.
    step_windows:
        Query window size in leaf windows (the paper's *temporal step*;
        e.g. step 48 over 15-minute leaves = 12-hour queries).
    spatial_level:
        Grid level at which dominating cells are computed — independent of
        the similarity level (Sec. 5.3 sweeps them separately).
    """

    start_window: int
    total_windows: int
    step_windows: int
    spatial_level: int

    def __post_init__(self) -> None:
        if self.step_windows < 1:
            raise ValueError("step must be at least one window")
        if self.total_windows < 1:
            raise ValueError("signature needs at least one window")
        if not 0 <= self.spatial_level <= 30:
            raise ValueError("spatial level must be in 0..30")

    @property
    def length(self) -> int:
        """Number of slots (queries) in every signature."""
        return math.ceil(self.total_windows / self.step_windows)


def signature_matrix(
    histories: Mapping[str, MobilityHistory], spec: SignatureSpec
) -> np.ndarray:
    """The signatures of all ``histories`` as one ``(N, spec.length)``
    uint64 matrix (0 = placeholder), rows in the mapping's order — what
    :func:`~repro.lsh.banding.band_bucket_ids` consumes.  Slot ``k`` of a
    row is the dominating cell over leaf windows
    ``[start + k*step, start + (k+1)*step)`` at ``spec.spatial_level``:
    the cell holding the most of the entity's records there (Sec. 4).

    One array pass: the histories' stored ``(window, cell, count)``
    columns are joined (:func:`~repro.core.history.leaf_columns`),
    windows outside the spec's span dropped, cells re-parented to
    ``spec.spatial_level``, counts summed per ``(entity, slot, cell)`` and
    each ``(entity, slot)`` keeps its largest sum, ties to the smallest
    cell id, so signatures are deterministic across runs.

    Both this pass and the paper's count tree start from the same stored
    per-bin sums; they differ only in the order those are added across a
    slot's windows and re-parented cells (sorted-cell order here, merge
    order in the tree).  Record counts — all that
    :func:`~repro.core.history.build_histories` and ``observe()`` produce
    — are integers and sum exactly either way; the fractional weights of
    region records (``radii=``) do too when dyadic, but for other
    fractions a near-tie within the last ulp may resolve differently from
    the tree.

    Raises :class:`ValueError` when ``spec.spatial_level`` is finer than
    a history's storage level (its cells cannot be re-parented *down*).
    """
    for history in histories.values():
        if spec.spatial_level > history.storage_level:
            raise ValueError(
                f"signature level {spec.spatial_level} is finer than the "
                f"storage level {history.storage_level} of history "
                f"{history.entity_id!r}"
            )
    matrix = np.zeros((len(histories), spec.length), dtype=np.uint64)
    rows, windows, cells, counts = leaf_columns(histories.values())
    windows = windows - spec.start_window
    inside = (windows >= 0) & (windows < spec.total_windows)
    if not inside.any():
        return matrix
    # One key per (entity, slot): the slot a leaf window falls into is
    # its offset from the span start divided by the step.
    groups = rows[inside] * spec.length + windows[inside] // spec.step_windows
    cells = parent_ids(cells[inside], spec.spatial_level)
    order = np.lexsort((cells, groups))
    groups, cells, counts = groups[order], cells[order], counts[inside][order]
    first = np.flatnonzero(run_starts(groups, cells))
    sums = np.add.reduceat(counts, first)
    groups, cells = groups[first], cells[first]
    # Per (entity, slot): the largest sum first, ties by ascending cell id.
    rank = np.lexsort((cells, -sums, groups))
    groups, cells = groups[rank], cells[rank]
    winners = run_starts(groups)
    matrix.reshape(-1)[groups[winners]] = cells[winners]
    return matrix


def signature_similarity(
    signature_a: Tuple[Optional[int], ...], signature_b: Tuple[Optional[int], ...]
) -> float:
    """The paper's signature similarity ``t``: matching dominating cells
    divided by signature size.

    Placeholder slots never match — a query window in which either entity
    is silent contributes no evidence.
    """
    if len(signature_a) != len(signature_b):
        raise ValueError("signatures must share one SignatureSpec")
    if not signature_a:
        return 0.0
    matches = sum(
        1
        for a, b in zip(signature_a, signature_b)
        if a is not None and a == b
    )
    return matches / len(signature_a)
