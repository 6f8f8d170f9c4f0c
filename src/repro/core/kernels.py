"""Vectorized batch similarity kernel (the ``backend="numpy"`` hot path).

The scalar engine in :mod:`repro.core.similarity` scores one pair at a
time, window by window, with Python loops over dict-backed bins — faithful
to Eq. 2 / Alg. 1 and easy to audit, but every one of the paper's figures
spends most of its runtime there.  This module re-implements the same
arithmetic over blocks of candidate pairs:

1.  **Gather** — for every candidate pair, the temporal windows both
    entities are active in are found with one sorted-array intersection
    over the per-entity window directories
    (:meth:`repro.core.corpus.HistoryCorpus.window_index`); each
    ``(pair, window)`` *interaction* is then a slice of the corpus-wide
    flat arrays (:meth:`repro.core.corpus.HistoryCorpus.arrays`: cell
    ids, geometry-table slots, IDFs; Morton-sorted for locality).
2.  **Shape grouping** — interactions whose distance matrix is a *vector*
    (one cell on either side, the overwhelming majority in real
    workloads) are processed ragged in a single flat dispatch with
    segment reductions (``np.minimum.reduceat`` et al.); true matrices
    (``m, n >= 2``) are padded into square power-of-two buckets
    (``pow2ceil(max(m, n))``), so a whole block needs only a handful of
    dense ``(B, s, s)`` tensor dispatches.
3.  **Distance** — the pairwise cell distances of a whole group are
    computed in one shot: haversine centre angle from precomputed
    lat/lng/cos(lat) minus both circumradii, clamped at zero, with
    identical cells forced to exactly ``0.0`` — the same lower-bound
    formula as :meth:`repro.geo.cell.CellId.distance_meters`, evaluated on
    the same per-cell constants.
4.  **Pairing** — greedy mutually-nearest (MNN) and mutually-furthest
    (MFN) selections are run for all matrices of a group simultaneously:
    one stable ``argsort`` over the flattened matrices, then ``m*n``
    vectorized accept/reject steps with used-row/used-column masks.  Stable
    ordering reproduces the scalar ``greedy_index_pairs`` tie-break
    (row-major on equal distances) exactly.
5.  **Aggregation** — proximity (Eq. 1), min-IDF weights, the MFN
    negative-only alibi contributions, and all the instrumentation counters
    (bin comparisons, common windows, alibi bin/entity pairs) are reduced
    per pair with ``np.add.at``.  The result is the **raw** Eq. 2 total:
    the BM25-style length normalisation is the engine's epilogue
    (:meth:`repro.core.similarity.SimilarityEngine.normalize`), not the
    kernel's.

The scalar path stays available as the verification oracle; the parity
suite (``tests/core/test_kernels_parity.py``) asserts both backends agree
to within 1e-9 on scores, counters and final links across every pairing /
MFN / IDF / normalisation combination.

Two properties of this kernel matter to the streaming layer
(:mod:`repro.core.streaming`):

* **dispatch determinism** — a pair's per-window contributions are
  accumulated in the same order (windows ascending; vector interactions,
  then matrix buckets by size) regardless of which other pairs share the
  batch, so scoring a pair alone reproduces its in-block result bit for
  bit.  That is what lets a delta relink re-score only cache misses and
  still match a cold run exactly;
* **normalisation is a separable epilogue** — the kernel always returns
  the raw Eq. 2 totals the :class:`~repro.core.score_cache.ScoreCache`
  memoises; the engine divides by the *live* length norms afterwards, so
  a cached total and a fresh one are normalised by the same code.

Doctest — batched greedy pairing, the heart of step 4:

>>> import numpy as np
>>> distances = np.array([[[0.0, 5.0],
...                        [5.0, 1.0]]])
>>> greedy_select_batch(distances, reverse=False)[0]
array([[ True, False],
       [False,  True]])
>>> greedy_select_batch(distances, reverse=True)[0]  # furthest pairing
array([[False,  True],
       [ True, False]])
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..geo.point import EARTH_RADIUS_METERS
from .corpus import HistoryCorpus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .similarity import SimilarityConfig

__all__ = [
    "BatchScoreResult",
    "concat_results",
    "score_pairs_batch",
    "score_pair_block",
    "greedy_select_batch",
    "SCORE_BLOCK_SIZE",
    "DENSE_SCORE_BLOCK_SIZE",
    "workload_block_size",
]

#: Histories at or below this many populated windows intersect through
#: their window dicts; larger ones use one sorted numpy intersection.
_DICT_INTERSECT_MAX_WINDOWS = 64

#: Candidate pairs scored per batch-kernel dispatch.  Bounds the peak size
#: of the kernel's per-shape tensors while still amortising the vectorized
#: work over thousands of (pair, window) interactions.  This is the
#: *sparse-workload* size; see :func:`workload_block_size`.
SCORE_BLOCK_SIZE = 4096

#: Block size for *dense* corpora (multiple cells per active window on
#: both sides).  Dense windows produce matrix-shaped interactions that the
#: kernel pads into square power-of-two buckets; the padded tensor volume
#: grows superlinearly with the number of pairs in a block, so smaller
#: blocks are ~3-4x faster there (measured on the cab workload, PR 4).
DENSE_SCORE_BLOCK_SIZE = 512

#: A pair of corpora counts as dense when the product of their mean
#: distinct-cells-per-active-window exceeds this (e.g. both sides
#: averaging >= 2 cells per window): most common windows then form
#: matrices rather than vectors.
_DENSE_CELLS_PRODUCT = 4.0


class BatchScoreResult(NamedTuple):
    """Per-pair outputs of one batch kernel dispatch (parallel arrays)."""

    scores: np.ndarray
    bin_comparisons: np.ndarray
    common_windows: np.ndarray
    alibi_bin_pairs: np.ndarray


def concat_results(results: Sequence[BatchScoreResult]) -> BatchScoreResult:
    """Concatenate the per-block kernel results of one dispatch (at
    least one) back into pair order.

    The scoring route cuts a candidate set into blocks, runs each as an
    executor task and stitches the per-block :class:`BatchScoreResult`\\ s
    back together with this; dispatch determinism (see the module
    docstring) is what makes the stitched result bit-identical to one
    unsharded dispatch.
    """
    if len(results) == 1:
        return results[0]
    return BatchScoreResult(*(np.concatenate(column) for column in zip(*results)))


def greedy_select_batch(
    distances: np.ndarray, reverse: bool, valid: "np.ndarray | None" = None
) -> np.ndarray:
    """Batched greedy mutual pairing over ``(B, m, n)`` distance tensors.

    The vector twin of :func:`repro.core.pairing.greedy_index_pairs`: for
    every matrix of the batch, repeatedly take the smallest (``reverse`` =
    False) or largest (True) remaining entry whose row and column are both
    unused, until ``min(m, n)`` entries are selected.  ``valid`` (optional
    boolean mask, same shape) excludes padded entries from selection.
    Returns a boolean selection mask of the same shape.

    Vector shapes (one row or one column) reduce to a single
    ``argmin``/``argmax``.  General matrices use the locally-dominant
    formulation of sequential greedy: rank all entries by one stable sort,
    then accept, in rounds, every entry that is the best-ranked survivor
    of both its row and its column — such entries never conflict, and the
    fixpoint equals the one-at-a-time greedy result.  Rounds are bounded
    by ``min(m, n)`` and are O(1) numpy passes each, so the whole batch
    costs a handful of vector operations instead of a Python loop per
    candidate.

    Ties break exactly like the scalar code: stable ordering (and
    first-occurrence ``argmin``/``argmax``) resolves equal distances
    row-major.
    """
    batch, rows, cols = distances.shape
    size = rows * cols
    if rows == 1 and cols == 1:
        return np.ones((batch, 1, 1), dtype=bool)
    flat = distances.reshape(batch, size)
    batch_index = np.arange(batch)
    if rows == 1 or cols == 1:
        # (The kernel's own vector dispatch never pads, but honour the
        # documented `valid` contract for external callers: masked entries
        # must not win the argmin/argmax.)
        if valid is not None:
            flat = np.where(
                valid.reshape(batch, size), flat, -np.inf if reverse else np.inf
            )
        best = np.argmax(flat, axis=1) if reverse else np.argmin(flat, axis=1)
        selected = np.zeros((batch, size), dtype=bool)
        selected[batch_index, best] = True
        return selected.reshape(batch, rows, cols)
    if rows == 2 and cols == 2 and valid is None:
        # Closed form: greedy takes the extreme entry, which forces the
        # diagonally opposite entry as the only remaining valid pair.
        best = np.argmax(flat, axis=1) if reverse else np.argmin(flat, axis=1)
        selected = np.zeros((batch, size), dtype=bool)
        selected[batch_index, best] = True
        selected[batch_index, 3 - best] = True
        return selected.reshape(batch, rows, cols)

    order = np.argsort(-flat if reverse else flat, axis=1, kind="stable")
    ranks = np.empty((batch, size), dtype=np.int64)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(size), (batch, size)), axis=1
    )
    ranks = ranks.reshape(batch, rows, cols)

    alive = (
        np.ones((batch, rows, cols), dtype=bool) if valid is None else valid.copy()
    )
    selected = np.zeros((batch, rows, cols), dtype=bool)
    # Rows of the batch finish at different rounds; once most are done it
    # is cheaper to compact the survivors than to keep scanning everyone.
    live_map: "np.ndarray | None" = None
    while True:
        masked = np.where(alive, ranks, size)
        accept = (
            (masked == masked.min(axis=2, keepdims=True))
            & (masked == masked.min(axis=1, keepdims=True))
            & alive
        )
        if live_map is None:
            selected |= accept
        else:
            selected[live_map] |= accept
        alive &= ~(
            accept.any(axis=2, keepdims=True) | accept.any(axis=1, keepdims=True)
        )
        live = alive.any(axis=(1, 2))
        survivors = int(live.sum())
        if not survivors:
            return selected
        if survivors * 2 < live.shape[0]:
            keep = np.nonzero(live)[0]
            live_map = keep if live_map is None else live_map[keep]
            alive = alive[keep]
            ranks = ranks[keep]


def _pow2ceil(values: np.ndarray) -> np.ndarray:
    """Elementwise smallest power of two >= ``values`` (ints >= 1).

    Uses ``frexp`` (exact for integers below 2**53) instead of ``log2``
    rounding, so exact powers of two map to themselves.

    >>> _pow2ceil(np.array([1, 2, 3, 4, 9])).tolist()
    [1, 2, 4, 4, 16]
    """
    frac, exponent = np.frexp(values.astype(np.float64))
    return np.where(frac == 0.5, values, np.left_shift(1, exponent))


def _cell_distances(
    lat_u: np.ndarray,
    lng_u: np.ndarray,
    cos_u: np.ndarray,
    rad_u: np.ndarray,
    cells_u: np.ndarray,
    lat_v: np.ndarray,
    lng_v: np.ndarray,
    cos_v: np.ndarray,
    rad_v: np.ndarray,
    cells_v: np.ndarray,
) -> np.ndarray:
    """Elementwise cell distances over broadcastable geometry arrays:
    haversine centre separation minus both circumradii, clamped at zero;
    identical cells are exactly zero (the same lower bound as
    :meth:`repro.geo.cell.CellId.distance_meters`)."""
    sin_dlat = np.sin((lat_v - lat_u) * 0.5)
    sin_dlng = np.sin((lng_v - lng_u) * 0.5)
    haversine = sin_dlat * sin_dlat + (cos_u * cos_v) * sin_dlng * sin_dlng
    angle = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(haversine)))
    separation = angle * EARTH_RADIUS_METERS - rad_u - rad_v
    distances = np.maximum(separation, 0.0)
    distances[cells_u == cells_v] = 0.0
    return distances


def _pairwise_distances(
    left: HistoryCorpus,
    right: HistoryCorpus,
    u_slots: np.ndarray,
    v_slots: np.ndarray,
    u_cells: np.ndarray,
    v_cells: np.ndarray,
) -> np.ndarray:
    """``(B, m, n)`` pairwise cell distances for one matrix bucket."""
    geo_u = left.cell_table()
    geo_v = right.cell_table()
    return _cell_distances(
        geo_u.lat[u_slots][:, :, None],
        geo_u.lng[u_slots][:, :, None],
        geo_u.cos_lat[u_slots][:, :, None],
        geo_u.radius[u_slots][:, :, None],
        u_cells[:, :, None],
        geo_v.lat[v_slots][:, None, :],
        geo_v.lng[v_slots][:, None, :],
        geo_v.cos_lat[v_slots][:, None, :],
        geo_v.radius[v_slots][:, None, :],
        v_cells[:, None, :],
    )


def _segment_first_extreme(
    values: np.ndarray,
    seg_start: np.ndarray,
    lengths: np.ndarray,
    largest: bool,
) -> np.ndarray:
    """Index of the first per-segment minimum (or maximum) of a ragged
    flat array — the segment twin of first-occurrence ``argmin``/``argmax``,
    which is exactly the scalar greedy tie-break for vector matrices."""
    reducer = np.maximum if largest else np.minimum
    extreme = reducer.reduceat(values, seg_start)
    is_extreme = values == np.repeat(extreme, lengths)
    hits = np.cumsum(is_extreme)
    before = np.empty(len(seg_start), dtype=np.int64)
    before[0] = 0
    if len(seg_start) > 1:
        before[1:] = hits[seg_start[1:] - 1]
    first = is_extreme & ((hits - np.repeat(before, lengths)) == 1)
    return np.nonzero(first)[0]


def _score_vector_interactions(
    left: HistoryCorpus,
    right: HistoryCorpus,
    config: "SimilarityConfig",
    runaway: float,
    pair_of: np.ndarray,
    off_u: np.ndarray,
    count_u: np.ndarray,
    off_v: np.ndarray,
    count_v: np.ndarray,
    totals: np.ndarray,
    alibi_bins: np.ndarray,
) -> None:
    """Score every interaction whose distance matrix is a vector
    (``min(m, n) == 1``) in one ragged flat dispatch.

    MNN degenerates to the first per-segment minimum, MFN to the first
    per-segment maximum (skipped when it coincides with the MNN pick —
    the scalar "avoid double counting" rule), and the all-pairs ablation
    to a plain segment sum, so no greedy loop is needed at all.
    """
    lengths = count_u * count_v
    total = int(lengths.sum())
    seg_start = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=seg_start[1:])
    position = np.arange(total) - np.repeat(seg_start, lengths)
    u_advances = np.repeat(count_v == 1, lengths)
    u_idx = np.repeat(off_u, lengths) + np.where(u_advances, position, 0)
    v_idx = np.repeat(off_v, lengths) + np.where(u_advances, 0, position)

    flats_u = left.arrays()
    flats_v = right.arrays()
    geo_u = left.cell_table()
    geo_v = right.cell_table()
    slots_u = flats_u.slots[u_idx]
    slots_v = flats_v.slots[v_idx]
    distances = _cell_distances(
        geo_u.lat[slots_u],
        geo_u.lng[slots_u],
        geo_u.cos_lat[slots_u],
        geo_u.radius[slots_u],
        flats_u.cells[u_idx],
        geo_v.lat[slots_v],
        geo_v.lng[slots_v],
        geo_v.cos_lat[slots_v],
        geo_v.radius[slots_v],
        flats_v.cells[v_idx],
    )
    ratio = np.minimum(distances / runaway, 2.0 - config.alibi_eps)
    prox = np.log2(2.0 - ratio)
    if config.use_idf:
        contribution = prox * np.minimum(flats_u.idf[u_idx], flats_v.idf[v_idx])
    else:
        contribution = prox

    if config.pairing == "mnn":
        nearest = _segment_first_extreme(distances, seg_start, lengths, largest=False)
        seg_totals = contribution[nearest]
        seg_alibi = (prox[nearest] < 0.0).astype(np.int64)
        if config.use_mfn and bool((distances > runaway).any()):
            furthest = _segment_first_extreme(
                distances, seg_start, lengths, largest=True
            )
            delta = contribution[furthest]
            negative = (furthest != nearest) & (delta < 0.0)
            seg_totals = seg_totals + np.where(negative, delta, 0.0)
            seg_alibi += negative
    else:
        seg_totals = np.add.reduceat(contribution, seg_start)
        seg_alibi = np.add.reduceat((prox < 0.0).astype(np.int64), seg_start)

    np.add.at(totals, pair_of, seg_totals)
    np.add.at(alibi_bins, pair_of, seg_alibi)


def _score_shape_group(
    left: HistoryCorpus,
    right: HistoryCorpus,
    config: "SimilarityConfig",
    runaway: float,
    pair_index: np.ndarray,
    u_slots: np.ndarray,
    v_slots: np.ndarray,
    u_cells: np.ndarray,
    v_cells: np.ndarray,
    u_idf: np.ndarray,
    v_idf: np.ndarray,
    valid: "np.ndarray | None",
    totals: np.ndarray,
    alibi_bins: np.ndarray,
) -> None:
    """Score every interaction of one padded shape bucket in place.

    ``valid`` masks real (non-padded) matrix entries; ``None`` means the
    whole bucket is unpadded.  Padded rows/columns duplicate the last real
    cell of their side, so the distance math never sees garbage — they are
    simply excluded from selection and aggregation.
    """
    rows = u_slots.shape[1]
    cols = v_slots.shape[1]
    mnn = config.pairing == "mnn"
    use_mfn = config.use_mfn and mnn and (rows > 1 or cols > 1)

    distances = _pairwise_distances(left, right, u_slots, v_slots, u_cells, v_cells)
    ratio = np.minimum(distances / runaway, 2.0 - config.alibi_eps)
    prox = np.log2(2.0 - ratio)
    if config.use_idf:
        weight = np.minimum(u_idf[:, :, None], v_idf[:, None, :])
        contribution = prox * weight
    else:
        contribution = prox

    if mnn:
        selected = greedy_select_batch(distances, reverse=False, valid=valid)
    elif valid is None:
        selected = np.ones_like(contribution, dtype=bool)
    else:
        selected = valid

    group_totals = np.where(selected, contribution, 0.0).sum(axis=(1, 2))
    group_alibi = (selected & (prox < 0.0)).sum(axis=(1, 2))

    if use_mfn:
        # The MFN pass can only contribute negative (alibi) terms, and
        # those need a distance beyond the runaway — matrices without one
        # are skipped wholesale, which on friendly workloads prunes almost
        # the entire furthest-pairing cost.
        alibi_possible = distances > runaway
        if valid is not None:
            alibi_possible &= valid
        needs_mfn = np.nonzero(alibi_possible.any(axis=(1, 2)))[0]
        if needs_mfn.size:
            furthest = greedy_select_batch(
                distances[needs_mfn],
                reverse=True,
                valid=None if valid is None else valid[needs_mfn],
            )
            negative = (
                furthest & ~selected[needs_mfn] & (contribution[needs_mfn] < 0.0)
            )
            group_totals[needs_mfn] += np.where(
                negative, contribution[needs_mfn], 0.0
            ).sum(axis=(1, 2))
            group_alibi[needs_mfn] += negative.sum(axis=(1, 2))

    np.add.at(totals, pair_index, group_totals)
    np.add.at(alibi_bins, pair_index, group_alibi)


def score_pairs_batch(
    left: HistoryCorpus,
    right: HistoryCorpus,
    pairs: Sequence[Tuple[str, str]],
    config: "SimilarityConfig",
) -> BatchScoreResult:
    """Raw Eq. 2 totals of a block of candidate pairs through the
    vectorized kernel.

    ``scores`` is what the scalar oracle's ``_raw_python`` returns per
    pair — the sum *before* the length normalisation, which is the
    engine's job.  All the per-pair counters of
    :class:`~repro.core.similarity.SimilarityStats` are reproduced so the
    instrumented figures (bin comparisons, alibi pairs) are backend
    independent.
    """
    num_pairs = len(pairs)
    totals = np.zeros(num_pairs, dtype=np.float64)
    bin_comparisons = np.zeros(num_pairs, dtype=np.int64)
    common_windows = np.zeros(num_pairs, dtype=np.int64)
    alibi_bins = np.zeros(num_pairs, dtype=np.int64)
    runaway = config.runaway_meters
    flats_u = left.arrays()
    flats_v = right.arrays()

    # Per pair, the temporal windows both entities are active in become
    # interaction records (pair, u offset, u count, v offset, v count).
    # Small histories (the common case) intersect through the window dicts
    # — with an O(min) disjointness pre-reject, crucial for sparse worlds
    # where most candidate pairs share nothing; large ones use one sorted
    # numpy intersection.
    pair_records: List[int] = []
    off_u_records: List[int] = []
    count_u_records: List[int] = []
    off_v_records: List[int] = []
    count_v_records: List[int] = []
    pair_chunks: List[np.ndarray] = []
    field_chunks: List[np.ndarray] = []
    for index, (left_entity, right_entity) in enumerate(pairs):
        index_u = left.window_index(left_entity)
        index_v = right.window_index(right_entity)
        if min(len(index_u), len(index_v)) <= _DICT_INTERSECT_MAX_WINDOWS:
            slices_u = index_u.slices
            slices_v = index_v.slices
            if len(slices_u) <= len(slices_v):
                if slices_u.keys().isdisjoint(slices_v):
                    continue
                for window, (offset_u, cells_u) in slices_u.items():
                    hit = slices_v.get(window)
                    if hit is None:
                        continue
                    pair_records.append(index)
                    off_u_records.append(offset_u)
                    count_u_records.append(cells_u)
                    off_v_records.append(hit[0])
                    count_v_records.append(hit[1])
            else:
                if slices_v.keys().isdisjoint(slices_u):
                    continue
                for window, (offset_v, cells_v) in slices_v.items():
                    hit = slices_u.get(window)
                    if hit is None:
                        continue
                    pair_records.append(index)
                    off_u_records.append(hit[0])
                    count_u_records.append(hit[1])
                    off_v_records.append(offset_v)
                    count_v_records.append(cells_v)
            continue
        _, in_u, in_v = np.intersect1d(
            index_u.windows,
            index_v.windows,
            assume_unique=True,
            return_indices=True,
        )
        if not in_u.size:
            continue
        fields = np.empty((4, in_u.size), dtype=np.int64)
        fields[0] = index_u.offsets[in_u]
        fields[1] = index_u.counts[in_u]
        fields[2] = index_v.offsets[in_v]
        fields[3] = index_v.counts[in_v]
        pair_chunks.append(np.full(in_u.size, index, dtype=np.int64))
        field_chunks.append(fields)

    if pair_records:
        pair_chunks.append(np.asarray(pair_records, dtype=np.int64))
        field_chunks.append(
            np.asarray(
                [off_u_records, count_u_records, off_v_records, count_v_records],
                dtype=np.int64,
            )
        )
    if not pair_chunks:
        return BatchScoreResult(
            scores=totals,
            bin_comparisons=bin_comparisons,
            common_windows=common_windows,
            alibi_bin_pairs=alibi_bins,
        )

    pair_of = np.concatenate(pair_chunks)
    off_u, count_u, off_v, count_v = np.hstack(field_chunks)
    common_windows += np.bincount(pair_of, minlength=num_pairs).astype(np.int64)
    bin_comparisons += np.bincount(
        pair_of, weights=(count_u * count_v).astype(np.float64), minlength=num_pairs
    ).astype(np.int64)

    # Vector-shaped interactions (one cell on either side) take the flat
    # ragged path: one dispatch, no padding, no greedy loop.
    vector = (count_u == 1) | (count_v == 1)
    if vector.any():
        members = np.nonzero(vector)[0]
        _score_vector_interactions(
            left,
            right,
            config,
            runaway,
            pair_of[members],
            off_u[members],
            count_u[members],
            off_v[members],
            count_v[members],
            totals,
            alibi_bins,
        )

    # True matrices go into square power-of-two buckets: a (m, n) matrix
    # lands in bucket s = pow2ceil(max(m, n)), padded by repeating each
    # side's last cell (masked out of selection/aggregation).  Bounded
    # padding waste buys an O(log) bucket count instead of one dispatch
    # per distinct shape.
    matrix = np.nonzero(~vector)[0]
    if matrix.size:
        sizes = _pow2ceil(np.maximum(count_u[matrix], count_v[matrix]))
        for side in np.unique(sizes).tolist():
            members = matrix[sizes == side]
            m_real = count_u[members, None]
            n_real = count_v[members, None]
            span = np.arange(side)
            idx_u = off_u[members, None] + np.minimum(span, m_real - 1)
            idx_v = off_v[members, None] + np.minimum(span, n_real - 1)
            if (m_real < side).any() or (n_real < side).any():
                valid = (span < m_real)[:, :, None] & (span < n_real)[:, None, :]
            else:
                valid = None
            _score_shape_group(
                left,
                right,
                config,
                runaway,
                pair_of[members],
                flats_u.slots[idx_u],
                flats_v.slots[idx_v],
                flats_u.cells[idx_u],
                flats_v.cells[idx_v],
                flats_u.idf[idx_u],
                flats_v.idf[idx_v],
                valid,
                totals,
                alibi_bins,
            )

    return BatchScoreResult(
        scores=totals,
        bin_comparisons=bin_comparisons,
        common_windows=common_windows,
        alibi_bin_pairs=alibi_bins,
    )


def workload_block_size(left: HistoryCorpus, right: HistoryCorpus) -> int:
    """The score-block size these corpora call for when none is set:
    :data:`DENSE_SCORE_BLOCK_SIZE` when their mean cells per active
    window multiply beyond :data:`_DENSE_CELLS_PRODUCT`, else
    :data:`SCORE_BLOCK_SIZE`.  The choice never affects results (dispatch
    determinism — pinned by ``tests/pipeline/test_block_size.py``), only
    tensor footprints and wall-clock."""
    density = left.avg_cells_per_window() * right.avg_cells_per_window()
    if density >= _DENSE_CELLS_PRODUCT:
        return DENSE_SCORE_BLOCK_SIZE
    return SCORE_BLOCK_SIZE


def score_pair_block(payload, block):
    """Executor task: one block of candidate pairs through
    :func:`score_pairs_batch`.

    Module-level so the ``"process"`` backend can pickle it by reference;
    ``payload`` is ``(left corpus, right corpus, config)``, shipped once
    per worker (by fork inheritance on Linux), ``block`` the pairs.  A
    worker: it reads its payload and returns new arrays, nothing else —
    the score cache in particular is the dispatching parent's business.
    The kernel is a module-global lookup per call, so a proxy installed
    on this module sees every in-process dispatch.
    """
    left, right, config = payload
    return score_pairs_batch(left, right, block, config)
