"""Vectorized batch similarity kernel (the ``backend="numpy"`` hot path).

The scalar engine in :mod:`repro.core.similarity` scores one pair at a
time, window by window, with Python loops over dict-backed bins — faithful
to Eq. 2 / Alg. 1 and easy to audit, but every one of the paper's figures
spends most of its runtime there.  This module re-implements the same
arithmetic over blocks of candidate pairs:

1.  **Gather** — the temporal windows both entities of each candidate
    pair are active in are found for the whole block by one array join
    (:func:`_window_join`) over the per-entity window directories
    (:meth:`repro.core.corpus.HistoryCorpus.window_index`): each side's
    distinct entities are coded once and their directories laid end to
    end, the right rows keyed ``code << 32 | window`` (sorted by
    construction), and every pair's left windows, expanded ragged,
    probe them with one ``searchsorted``.  The join emits the
    ``(pair, window)`` *interactions* pair-major with windows ascending;
    each is a slice of the corpus-wide flat arrays
    (:meth:`repro.core.corpus.HistoryCorpus.arrays`: cell ids,
    geometry-table slots, df slots; Morton-sorted for locality), and a
    bin's IDF is the corpus' per-df-slot value gathered through its slot.
2.  **Distance and proximity** — both are functions of the two cells
    alone: haversine centre angle from the precomputed lat/lng/cos(lat) of
    the corpora's :class:`~repro.core.corpus.CellTable` rows minus both
    circumradii, clamped at zero, identical cells exactly ``0.0`` — the
    same lower-bound formula as
    :meth:`repro.geo.cell.CellId.distance_meters` on the same per-cell
    constants — and Eq. 1 on top of it.  *Tabulation rule:* when the
    ``(left cells, right cells)`` table has no more entries than the
    dispatch has live bin comparisons, it is computed once and every
    interaction gathers ``table[slots_u, slots_v]`` (one dense city: a
    few thousand distinct cell pairs meet millions of times); otherwise
    (sparse worlds, small streaming deltas) every comparison is computed
    where it stands.  The rule reads only the input, and both arms run
    the same elementwise formula, so which one a dispatch takes cannot
    change a bit.  The table is derived state and a *local* of the
    dispatch (:func:`_proximity_lookup` returns a closure over it): the
    ``thread`` executor's workers share modules and corpora, so anything
    kept on either would be a cross-dispatch cache to invalidate and to
    synchronise.
3.  **Shape grouping** — an interaction of ``m`` left and ``n`` right
    cells is an ``m x n`` distance matrix.  The block's interactions are
    grouped by their exact ``(m, n)`` and each group is gathered as one
    unpadded ``(B, m, n)`` tensor: every entry is a live comparison, and
    every shape — vectors (``1 x n``, ``m x 1``; the overwhelming
    majority in sparse worlds) included — takes the same path.  A dense
    city block has a few dozen groups, a sparse one a handful.
4.  **Pairing** — greedy mutually-nearest (MNN) and mutually-furthest
    (MFN) selections run for all matrices of a group at once, as the
    sequential greedy itself: exactly ``min(m, n)`` rounds, each one
    first-occurrence ``argmin`` over the flattened matrices followed by
    overwriting the picked row and column with ``inf``.  First occurrence
    is the scalar ``greedy_index_pairs`` tie-break (row-major on equal
    distances).
5.  **Aggregation** — proximity times min-IDF weight over the selected
    entries, plus the MFN negative-only alibi contributions, gives one
    total and one alibi count per *interaction*, written into two
    interaction-length arrays whichever shape group produced them; one
    ``np.bincount`` per counter then folds them per pair, in interaction
    order.  The result is the **raw** Eq. 2 total: the BM25-style length
    normalisation is the engine's epilogue
    (:meth:`repro.core.similarity.SimilarityEngine.normalize`), not the
    kernel's.

The scalar path stays available as the verification oracle; the parity
suite (``tests/core/test_kernels_parity.py``) asserts both backends agree
to within 1e-9 on scores, counters and final links across every pairing /
MFN / IDF / normalisation combination.

Two properties of this kernel matter to the streaming layer
(:mod:`repro.core.streaming`):

* **dispatch determinism** — an interaction's total depends on its own
  cells only (it is reduced over its own ``m x n`` entries, whichever
  other interactions share its shape group), and a pair's interactions
  are folded in their own order, windows ascending, regardless of which
  other pairs share the batch, so scoring a pair alone reproduces its
  in-block result bit for bit.  That is what lets a delta relink
  re-score only cache misses and still match a cold run exactly.  A
  change that can move a raw total in any bit bumps
  :data:`ARITHMETIC_REVISION`, so totals cached before it miss instead
  of mixing;
* **normalisation is a separable epilogue** — the kernel always returns
  the raw Eq. 2 totals the :class:`~repro.core.score_cache.ScoreCache`
  memoises; the engine divides by the *live* length norms afterwards, so
  a cached total and a fresh one are normalised by the same code.

Doctest — batched greedy pairing, step 4:

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

from typing import TYPE_CHECKING, Callable, Dict, Iterable, NamedTuple, Sequence, Tuple

import numpy as np

from ..geo.point import EARTH_RADIUS_METERS
from .corpus import _ROW_BITS, HistoryCorpus

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

#: Revision of the kernel's arithmetic, one term of
#: :func:`~repro.core.similarity.score_cache_space`.  Bump when a raw
#: total can change in any bit (summation order, grouping, formula), so
#: a score cache or snapshot written before the change is a clean miss
#: rather than a mix of old and new totals.
ARITHMETIC_REVISION = 3

#: Candidate pairs scored per batch-kernel dispatch.  Bounds the peak size
#: of the kernel's per-shape tensors while still amortising the vectorized
#: work over thousands of (pair, window) interactions.  This is the
#: *sparse-workload* size; see :func:`workload_block_size`.
SCORE_BLOCK_SIZE = 4096

#: Block size for *dense* corpora (multiple cells per active window on
#: both sides), whose interactions are matrices: a block's ``(B, m, n)``
#: tensors hold hundreds of comparisons per pair.  It bounds memory, and
#: costs no time: on the ``batch_dense_brute`` inputs (70 taxis, 1,225
#: brute pairs, 1.25 M comparisons; median of 7 fresh processes on a
#: 2-vCPU box) scoring takes 0.122 / 0.138 / 0.147 s at 128 / 512 / 4096
#: pairs per block, while the run's peak RSS is 65 / 67 / 75 MB and the
#: traced allocation peak 15 / 15 / 28 MB.
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


def greedy_select_batch(distances: np.ndarray, reverse: bool) -> np.ndarray:
    """Batched greedy mutual pairing over ``(B, m, n)`` distance tensors.

    The vector twin of :func:`repro.core.pairing.greedy_index_pairs`: for
    every matrix of the batch, repeatedly take the smallest (``reverse`` =
    False) or largest (True) remaining entry whose row and column are both
    unused, until ``min(m, n)`` entries are selected.  Returns a boolean
    selection mask of the same shape; ``distances`` is not modified.

    Sequential greedy, all matrices at once, in exactly ``min(m, n)``
    rounds: one ``argmin`` over the flattened matrices (of ``-distances``
    when ``reverse``) picks every matrix's next entry, whose row and
    column are then overwritten with ``inf`` for the rounds still to
    come.  ``argmin`` returns the first occurrence, which is the scalar
    tie-break: equal distances resolve row-major.
    """
    batch, rows, cols = distances.shape
    keys = distances.astype(np.float64)  # a copy: the rounds consume it
    if reverse:
        np.negative(keys, out=keys)
    flat = keys.reshape(batch, rows * cols)
    selected = np.zeros((batch, rows * cols), dtype=bool)
    every = np.arange(batch)
    for remaining in range(min(rows, cols) - 1, -1, -1):
        best = flat.argmin(axis=1)
        selected[every, best] = True
        if remaining:
            keys[every, best // cols, :] = np.inf
            keys[every, :, best % cols] = np.inf
    return selected.reshape(batch, rows, cols)


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


#: ``(slots_u, slots_v) -> (distances, proximities)`` over broadcastable
#: arrays of left / right :class:`~repro.core.corpus.CellTable` rows.
_Lookup = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _proximity_lookup(
    left: HistoryCorpus, right: HistoryCorpus, config: "SimilarityConfig", live: int
) -> _Lookup:
    """How one dispatch of ``live`` bin comparisons turns cell-table rows
    into distances and Eq. 1 proximities.

    Both are functions of the two cells alone, so when the whole
    ``(left cells, right cells)`` table has no more entries than the
    dispatch has comparisons it is computed once and every interaction
    gathers from it (a dense city: the same few thousand cell pairs meet
    millions of times); otherwise — sparse worlds, small streaming deltas
    — each comparison is computed where it stands.  Either way it is the
    same elementwise formula on the same per-cell constants, so which arm
    a dispatch takes cannot change a bit.  The table lives in the returned
    closure and dies with the dispatch: it is derived state, and executor
    threads share modules and corpora.
    """
    geo_u = left.cell_table()
    geo_v = right.cell_table()
    runaway = config.runaway_meters
    cap = 2.0 - config.alibi_eps

    def compute(slots_u: np.ndarray, slots_v: np.ndarray):
        distances = _cell_distances(
            geo_u.lat[slots_u],
            geo_u.lng[slots_u],
            geo_u.cos_lat[slots_u],
            geo_u.radius[slots_u],
            geo_u.cell_ids[slots_u],
            geo_v.lat[slots_v],
            geo_v.lng[slots_v],
            geo_v.cos_lat[slots_v],
            geo_v.radius[slots_v],
            geo_v.cell_ids[slots_v],
        )
        return distances, np.log2(2.0 - np.minimum(distances / runaway, cap))

    cells_u = len(geo_u.lat)
    cells_v = len(geo_v.lat)
    if cells_u * cells_v > live:
        return compute
    distances, prox = compute(np.arange(cells_u)[:, None], np.arange(cells_v)[None, :])
    distances, prox = distances.ravel(), prox.ravel()

    def gather(slots_u: np.ndarray, slots_v: np.ndarray):
        entry = slots_u * cells_v + slots_v
        return distances.take(entry), prox.take(entry)

    return gather


def _score_shape(
    config: "SimilarityConfig",
    lookup: _Lookup,
    u_slots: np.ndarray,
    v_slots: np.ndarray,
    u_idf: np.ndarray,
    v_idf: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Totals and alibi counts of every interaction of one exact
    ``(B, m, n)`` shape group (``u_*`` are ``(B, m)``, ``v_*`` ``(B, n)``)."""
    batch = len(u_slots)
    mnn = config.pairing == "mnn"
    distances, prox = lookup(u_slots[:, :, None], v_slots[:, None, :])
    if config.use_idf:
        contribution = prox * np.minimum(u_idf[:, :, None], v_idf[:, None, :])
    else:
        contribution = prox

    if mnn:
        selected = greedy_select_batch(distances, reverse=False)
    else:
        selected = np.ones(distances.shape, dtype=bool)
    totals = np.where(selected, contribution, 0.0).reshape(batch, -1).sum(axis=1)
    alibi = np.zeros(batch, dtype=np.int64)

    # A negative proximity needs a distance beyond the runaway, and so
    # does anything the MFN pass can contribute (it only ever adds alibi
    # terms) — matrices without one skip both, which on friendly workloads
    # prunes the entire furthest-pairing cost.
    beyond = distances > config.runaway_meters
    far = np.nonzero(beyond.reshape(batch, -1).any(axis=1))[0]
    if far.size:
        selected = selected[far]
        contribution = contribution[far]
        alibi[far] = (selected & (prox[far] < 0.0)).reshape(far.size, -1).sum(axis=1)
        if mnn and config.use_mfn:
            furthest = greedy_select_batch(distances[far], reverse=True)
            negative = furthest & ~selected & (contribution < 0.0)
            totals[far] += (
                np.where(negative, contribution, 0.0).reshape(far.size, -1).sum(axis=1)
            )
            alibi[far] += negative.reshape(far.size, -1).sum(axis=1)
    return totals, alibi


def _directories(
    corpus: HistoryCorpus, entities: Iterable[str]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The window directories of ``entities`` laid end to end, as columns
    ``(windows, offsets, counts)``, and each entity's number of rows."""
    held = [corpus.window_index(entity) for entity in entities]
    none = np.empty(0, dtype=np.int64)
    return (
        np.concatenate([none, *(one.windows for one in held)]),
        np.concatenate([none, *(one.offsets for one in held)]),
        np.concatenate([none, *(one.counts for one in held)]),
        np.fromiter(map(len, held), np.int64, len(held)),
    )


def _window_join(
    left: HistoryCorpus, right: HistoryCorpus, pairs: Sequence[Tuple[str, str]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(pair, off_u, count_u, off_v, count_v)``: one row per window both
    entities of a pair are active in, pair-major, windows ascending.

    Each side's distinct entities are coded once, in first-appearance
    order, and their directories laid end to end.  A right row is keyed
    ``code << 32 | window`` — sorted, since codes ascend and so does each
    directory, and windows fit 32 bits — and every pair's left windows,
    expanded ragged, probe those keys with one ``searchsorted``.
    """
    codes_u: Dict[str, int] = {}
    codes_v: Dict[str, int] = {}
    code_u = np.fromiter(
        (codes_u.setdefault(u, len(codes_u)) for u, _ in pairs), np.int64, len(pairs)
    )
    code_v = np.fromiter(
        (codes_v.setdefault(v, len(codes_v)) for _, v in pairs), np.int64, len(pairs)
    )
    windows_u, offsets_u, counts_u, sizes_u = _directories(left, codes_u)
    windows_v, offsets_v, counts_v, sizes_v = _directories(right, codes_v)
    owner_v = np.repeat(np.arange(len(sizes_v)), sizes_v)
    # A sentinel above every probe makes each insertion point a real row.
    keys_v = np.append((owner_v << _ROW_BITS) | windows_v, np.iinfo(np.int64).max)

    # Pair p's left windows, expanded: the k-th is left directory row
    # ``first row of code_u[p] + k``.
    spans = sizes_u[code_u]
    pair_of = np.repeat(np.arange(len(pairs)), spans)
    shift = (np.cumsum(sizes_u) - sizes_u)[code_u] - (np.cumsum(spans) - spans)
    row_u = np.arange(len(pair_of)) + np.repeat(shift, spans)
    probe = (code_v[pair_of] << _ROW_BITS) | windows_u[row_u]
    row_v = np.searchsorted(keys_v, probe)
    hit = keys_v[row_v] == probe
    pair_of, row_u, row_v = pair_of[hit], row_u[hit], row_v[hit]
    return pair_of, offsets_u[row_u], counts_u[row_u], offsets_v[row_v], counts_v[row_v]


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
    flats_u = left.arrays()
    flats_v = right.arrays()
    pair_of, off_u, count_u, off_v, count_v = _window_join(left, right, pairs)
    comparisons = count_u * count_v
    lookup = _proximity_lookup(left, right, config, int(comparisons.sum()))
    # Every interaction's total and alibi count, in interaction order —
    # a pair's windows ascending, whichever shape group scored them.
    totals = np.zeros(len(pair_of), dtype=np.float64)
    alibi = np.zeros(len(pair_of), dtype=np.int64)

    # One group per exact (m, n): its interactions gathered as an
    # unpadded (B, m, n) tensor, rows from the left flats and columns
    # from the right.
    stride = int(count_v.max(initial=0)) + 1
    shape_of = count_u * stride + count_v
    for shape in np.unique(shape_of).tolist():
        rows, cols = divmod(shape, stride)
        members = np.nonzero(shape_of == shape)[0]
        idx_u = off_u[members, None] + np.arange(rows)
        idx_v = off_v[members, None] + np.arange(cols)
        totals[members], alibi[members] = _score_shape(
            config,
            lookup,
            flats_u.slots[idx_u],
            flats_v.slots[idx_v],
            flats_u.idf_by_slot[flats_u.keys[idx_u]],
            flats_v.idf_by_slot[flats_v.keys[idx_v]],
        )

    # One fold per pair, in interaction order (``bincount`` accumulates
    # sequentially), so a pair's total never depends on which other
    # pairs or shape groups shared the dispatch.
    def per_pair(values: "np.ndarray | None" = None) -> np.ndarray:
        return np.bincount(pair_of, weights=values, minlength=len(pairs))

    return BatchScoreResult(
        scores=per_pair(totals),
        bin_comparisons=per_pair(comparisons).astype(np.int64),
        common_windows=per_pair().astype(np.int64),
        alibi_bin_pairs=per_pair(alibi).astype(np.int64),
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
