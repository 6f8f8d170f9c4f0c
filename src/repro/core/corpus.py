"""Corpus-level statistics over one dataset's mobility histories.

The similarity score of Eq. 2 needs two dataset-level quantities:

* **IDF** (Eq. 3): ``idf(e, E) = ln(|U_E| / df(e))`` where ``df(e)`` is the
  number of histories containing time-location bin ``e`` — uniqueness makes
  a matching bin stronger evidence;
* **average history size**: the denominator of the BM25-style length
  normalisation ``L(u, E)``.

:class:`HistoryCorpus` precomputes both at a fixed similarity spatial level
and exposes per-entity bins annotated with their IDF so the inner similarity
loop does no dictionary lookups beyond one per window.

Two views of the same data are maintained:

* the **dict view** (:meth:`HistoryCorpus.bins_with_idf`) that the scalar
  similarity path iterates — per window, ``(cell, idf)`` tuples;
* the **array view** (:meth:`HistoryCorpus.arrays` +
  :meth:`HistoryCorpus.window_index`, backed by
  :meth:`HistoryCorpus.cell_table`) that the vectorized batch kernel
  (:mod:`repro.core.kernels`) consumes — one corpus-wide flat layout of
  cell ids, geometry-table slots and IDFs with per-entity window
  directories.  Cells within a window are sorted by cell id, which *is*
  Morton (Z-order) order in this grid (see :mod:`repro.geo.cell`), so
  consecutive slots reference spatially nearby centroids and the kernel's
  gathers stay cache-friendly.

Streaming support — *delta maintenance instead of rebuilds*
-----------------------------------------------------------

A corpus is **live**: it keeps references to the history objects it was
built from, remembers each history's
:attr:`~repro.core.history.MobilityHistory.version`, and
:meth:`HistoryCorpus.refresh` folds any growth into the statistics and
array views *in place*:

* document frequencies are updated by retracting the dirty entities' old
  bin snapshots and ingesting their new ones (O(changed bins), not
  O(corpus));
* the flat arrays are **extended**, not re-materialised: a dirty entity's
  new layout is appended and its :class:`WindowIndex` repointed, leaving
  the old slice as garbage that a compaction pass reclaims once it
  outweighs the live data; new cells append rows to the
  :class:`CellTable`;
* the IDF column is re-derived in one vectorized pass from the updated
  document-frequency table (every flat entry remembers its df slot), so
  clean entities' rows pick up global IDF movement without any per-entity
  Python work.

**Removal is a first-class delta too** (the retention path of
:mod:`repro.core.retention`): deleting an entity from the backing
histories mapping and calling :meth:`refresh` retracts its bin snapshot
from the document frequencies, drops its window directory (the flat slice
becomes garbage, reclaimed eagerly through the compaction pass so
steady-state memory tracks the *live* entities), reclaims df slots no
surviving entity references, and reports the eviction on
:attr:`CorpusDelta.evicted`.  Remaining entities see the same IDF-drift
accounting as growth deltas — a retired holder moves a shared bin's
document frequency exactly like a new one does.

:meth:`refresh` reports what changed as a :class:`CorpusDelta` — the dirty
entity set plus the per-bin IDF drift — which is exactly what
:class:`~repro.core.streaming.StreamingLinker` needs to decide which cached
pair scores survive a delta.

Doctest — a two-entity corpus, grown incrementally:

>>> import numpy as np
>>> from repro.core.history import MobilityHistory
>>> from repro.temporal import Windowing
>>> w = Windowing(0.0, 900.0)
>>> def history(eid, t, lat, lng):
...     return MobilityHistory.from_columns(
...         eid, np.array(t), np.array(lat), np.array(lng), w, 12)
>>> histories = {
...     "a": history("a", [10.0], [37.77], [-122.42]),
...     "b": history("b", [20.0], [37.77], [-122.42]),
... }
>>> corpus = HistoryCorpus(histories, level=12)
>>> corpus.size, corpus.avg_bins
(2, 1.0)
>>> histories["a"].extend(np.array([1000.0]), np.array([37.90]), np.array([-122.10]))
>>> delta = corpus.refresh()
>>> delta.dirty_entities
('a',)
>>> corpus.avg_bins
1.5
>>> corpus.refresh().dirty_entities   # nothing changed since
()

Removal delta — retire "b" and the statistics follow:

>>> del histories["b"]
>>> corpus.refresh().evicted
('b',)
>>> corpus.size, corpus.avg_bins
(1, 2.0)
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geo.cell import CellId
from ..store.columns import DiskColumns, FlatColumns, MemoryColumns
from ..store.hilbert import hilbert_key
from .history import STALE_VERSION, MobilityHistory

__all__ = [
    "HistoryCorpus",
    "CorpusDelta",
    "CellTable",
    "CorpusArrays",
    "WindowIndex",
    "content_fingerprint",
]


def content_fingerprint(
    histories: Dict[str, MobilityHistory], level: int
) -> str:
    """A stable digest of a histories mapping's (entity, window, cell)
    content at one spatial level.

    Unlike the process-local default cache tokens (a per-process counter),
    two corpora built from identical data in *different processes* share
    this fingerprint — which is what lets a persisted
    :class:`~repro.core.score_cache.ScoreCache`
    (:meth:`~repro.core.score_cache.ScoreCache.save` /
    :meth:`~repro.core.score_cache.ScoreCache.load`) warm-start a later
    run: the pipeline keys its corpora by content whenever a cache is
    attached (see :class:`~repro.pipeline.stages.PrepareStage`).  Cost is
    one pass over the bins — negligible next to scoring them.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"level={level}".encode())
    for entity_id in sorted(histories):
        digest.update(b"\x00e\x00")
        digest.update(entity_id.encode())
        bins = histories[entity_id].bins(level)
        for window in sorted(bins):
            digest.update(b"\x00w")
            digest.update(str(window).encode())
            for cell in bins[window]:
                digest.update(int(cell).to_bytes(8, "little"))
    return digest.hexdigest()

#: bins_with_idf value type: per window, a tuple of (cell id, idf) pairs.
BinsWithIdf = Dict[int, Tuple[Tuple[int, float], ...]]

#: One entity's bins snapshot: ``{window: (cells...)}`` as returned by
#: :meth:`repro.core.history.MobilityHistory.bins`.
BinsSnapshot = Dict[int, Tuple[int, ...]]

#: Source of default per-corpus cache tokens (see
#: :attr:`HistoryCorpus.cache_token`).  A plain guarded counter rather
#: than ``itertools.count()`` so a restored snapshot can *reserve* its
#: tokens: without the floor bump, a linker restored into a fresh
#: process could collide its persisted ``("corpus", n)`` token with a
#: new corpus's process-local ``n`` and silently share score-cache rows.
_TOKEN_LOCK = threading.Lock()
_NEXT_TOKEN = 0


def _fresh_token() -> int:
    global _NEXT_TOKEN
    with _TOKEN_LOCK:
        token = _NEXT_TOKEN
        _NEXT_TOKEN += 1
    return token


def reserve_cache_token(token: Hashable) -> None:
    """Bump the default-token floor past a restored ``("corpus", n)``
    token (no-op for tokens of any other shape)."""
    if (
        isinstance(token, tuple)
        and len(token) == 2
        and token[0] == "corpus"
        and isinstance(token[1], int)
    ):
        global _NEXT_TOKEN
        with _TOKEN_LOCK:
            _NEXT_TOKEN = max(_NEXT_TOKEN, token[1] + 1)

#: Compact the flat arrays once live entries drop below this fraction of
#: the total (garbage from superseded entity slices dominates).
_COMPACT_LIVE_FRACTION = 0.5


@dataclass(frozen=True)
class CellTable:
    """Contiguous geometry of every distinct cell in one corpus.

    ``slot_of`` maps a cell id to its row in the parallel arrays.  At
    first build, rows are assigned in ascending cell-id order (Morton
    order within a face) so window slot ranges touch nearby rows; cells
    discovered by later :meth:`HistoryCorpus.refresh` deltas append in
    discovery order.  ``lat``/``lng`` are the cell centre in radians
    (identical values to ``CellId.center()`` — they come from it),
    ``cos_lat`` the precomputed cosine the haversine needs, and ``radius``
    the circumradius in metres used by the centre-distance lower bound of
    :meth:`repro.geo.cell.CellId.distance_meters`.
    """

    slot_of: Dict[int, int]
    cell_ids: np.ndarray  # (C,) uint64
    lat: np.ndarray  # (C,) float64, radians
    lng: np.ndarray  # (C,) float64, radians
    cos_lat: np.ndarray  # (C,) float64
    radius: np.ndarray  # (C,) float64, metres


@dataclass(frozen=True)
class CorpusArrays:
    """Every entity's time-location bins as one flat contiguous layout.

    ``cells`` / ``slots`` / ``idf`` are parallel arrays over all (entity,
    window, cell) bins of the corpus, window-major per entity with cells
    Morton-sorted inside each window.  Per entity, :class:`WindowIndex`
    records which slice of the flats each populated window occupies, so
    the batch kernel's gather is pure fancy indexing.

    After a :meth:`HistoryCorpus.refresh` the flats may contain *garbage*
    slices (superseded entity layouts); they are unreachable through any
    current :class:`WindowIndex` and are reclaimed by compaction.  A
    ``CorpusArrays`` instance obtained before a refresh must not be mixed
    with window indices obtained after one.
    """

    cells: np.ndarray  # (T,) uint64 cell ids
    slots: np.ndarray  # (T,) int64 rows of the corpus CellTable
    idf: np.ndarray  # (T,) float64 Eq. 3 values


@dataclass(frozen=True)
class WindowIndex:
    """One entity's directory into the corpus' :class:`CorpusArrays`.

    ``windows`` is sorted ascending; window ``windows[k]`` owns the flat
    slice ``[offsets[k], offsets[k] + counts[k])``.  ``slices`` is the
    same directory as a dict (window -> ``(offset, count)``, insertion
    order ascending): the batch kernel intersects *small* window sets
    through it (dict lookups beat sorted-array intersection there, and
    ``slices.keys().isdisjoint`` rejects non-overlapping pairs in O(min))
    while large histories use the sorted arrays.
    """

    windows: np.ndarray  # (W,) int64 populated leaf-window indices
    offsets: np.ndarray  # (W,) int64 starts into the corpus flats
    counts: np.ndarray  # (W,) int64 distinct cells per window
    slices: Dict[int, Tuple[int, int]]  # window -> (offset, count)

    def __len__(self) -> int:
        return len(self.windows)


@dataclass(frozen=True)
class CorpusDelta:
    """What one :meth:`HistoryCorpus.refresh` changed.

    Attributes
    ----------
    dirty_entities:
        Entities whose history grew (or appeared) since the last refresh.
    evicted:
        Entities removed from the backing histories mapping since the
        last refresh (entity retirement — see
        :mod:`repro.core.retention`); their bins were retracted from the
        statistics and their flat slices reclaimed.
    idf_drift:
        ``{(window, cell): |Δidf|}`` for bins whose document frequency
        changed while remaining shared (old df > 0 and new df > 0).  Bins
        appearing for the first time, or vanishing entirely, are held
        only by dirty entities and need no entry.
    global_drift:
        ``|Δ ln |U_E||`` — the IDF shift every *untouched* bin experienced
        because the corpus size changed (zero when no entity was added).
    """

    dirty_entities: Tuple[str, ...]
    idf_drift: Dict[Tuple[int, int], float] = field(default_factory=dict)
    global_drift: float = 0.0
    evicted: Tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        """True when the refresh found nothing to do."""
        return not self.dirty_entities and not self.evicted


class HistoryCorpus:
    """Histories of one dataset plus the statistics Eq. 2 and Eq. 3 need."""

    def __init__(
        self,
        histories: Dict[str, MobilityHistory],
        level: int,
        cache_token: Optional[Hashable] = None,
    ) -> None:
        """``level`` is the similarity spatial level (paper default 12).

        ``cache_token`` identifies this corpus inside a shared
        :class:`~repro.core.score_cache.ScoreCache`; by default every
        corpus gets a fresh token (no cross-corpus reuse).  Callers that
        *know* two corpora are statistically identical (same histories,
        same level — e.g. repeated tuning sweeps) may pass a stable token
        to share cached scores between them.
        """
        if not histories:
            raise ValueError("corpus needs at least one history")
        self._histories = histories
        self._level = level
        #: Identity of this corpus inside a shared ScoreCache.
        self.cache_token: Hashable = (
            ("corpus", _fresh_token()) if cache_token is None else cache_token
        )

        # Document frequencies: key -> slot into the parallel count list
        # (slots are never recycled, so flat arrays can reference them
        # across refreshes and re-derive IDFs vectorized).
        self._df_slot: Dict[Tuple[int, int], int] = {}
        self._df_counts: List[float] = []
        self._total_bins = 0
        self._entity_bins: Dict[str, BinsSnapshot] = {}
        self._entity_versions: Dict[str, int] = {}
        # |H_u| per entity, kept where its bins enter and leave
        # _total_bins (derived from _entity_bins: restore() recounts it).
        self._bin_counts: Dict[str, int] = {}
        for entity_id, history in histories.items():
            self._ingest_entity(entity_id, history, touched=None)
        self._size = len(histories)
        self._avg_bins = self._total_bins / self._size if self._size else 0.0
        self._log_size = math.log(self._size) if self._size else 0.0

        self._bins_with_idf: Dict[str, BinsWithIdf] = {}
        self._cell_table: Optional[CellTable] = None
        self._window_index: Dict[str, WindowIndex] = {}
        # The flat columns of the array view (built lazily): a
        # :mod:`repro.store.columns` backend — on the heap until
        # :meth:`spill` hands them to the disk one.  The corpus decides
        # what changes; the backend decides where it lives.
        self._flats: Optional[FlatColumns] = None
        self._flat_live = 0

    # ------------------------------------------------------------------
    # df bookkeeping
    # ------------------------------------------------------------------
    def _ingest_entity(
        self,
        entity_id: str,
        history: MobilityHistory,
        touched: Optional[Dict[Tuple[int, int], float]],
    ) -> BinsSnapshot:
        """Add one history's bins to the document frequencies and snapshot
        them (``touched`` collects pre-change counts during refreshes)."""
        bins = history.bins(self._level)
        df_slot = self._df_slot
        counts = self._df_counts
        before = self._total_bins
        for window, cells in bins.items():
            self._total_bins += len(cells)
            for cell in cells:
                key = (window, cell)
                slot = df_slot.get(key)
                if slot is None:
                    df_slot[key] = len(counts)
                    if touched is not None:
                        touched.setdefault(key, 0.0)
                    counts.append(1.0)
                else:
                    if touched is not None:
                        touched.setdefault(key, counts[slot])
                    counts[slot] += 1.0
        self._entity_bins[entity_id] = bins
        self._entity_versions[entity_id] = history.version
        self._bin_counts[entity_id] = self._total_bins - before
        return bins

    def _retract_bins(
        self, bins: BinsSnapshot, touched: Dict[Tuple[int, int], float]
    ) -> None:
        """Remove one superseded bins snapshot from the document
        frequencies."""
        df_slot = self._df_slot
        counts = self._df_counts
        for window, cells in bins.items():
            self._total_bins -= len(cells)
            for cell in cells:
                key = (window, cell)
                slot = df_slot[key]
                touched.setdefault(key, counts[slot])
                counts[slot] -= 1.0

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> CorpusDelta:
        """Fold history growth — and entity removal — into the corpus,
        in place.

        Scans the backing histories for version changes (and new
        entities), re-ingests exactly those, updates size / average /
        document frequencies, extends the array views, and invalidates the
        per-entity caches the delta made stale.  Cost is proportional to
        the changed histories (plus one vectorized IDF pass over the
        flats), not to the corpus.

        Entities *deleted* from the backing mapping since the last refresh
        are retired symmetrically: their bin snapshots are retracted, their
        flat slices become garbage reclaimed eagerly by compaction, and df
        slots no surviving entity references are recycled — so a corpus on
        a retention-bounded stream stays bounded-memory.  They are reported
        on :attr:`CorpusDelta.evicted`.
        """
        if not self._histories:
            # Check eligibility before touching any state: raising midway
            # through retraction would leave the statistics inconsistent.
            raise ValueError("refresh would leave the corpus empty")
        evicted: List[str] = [
            entity_id
            for entity_id in self._entity_versions
            if entity_id not in self._histories
        ]
        dirty: List[str] = []
        touched: Dict[Tuple[int, int], float] = {}
        old_log_size = self._log_size
        for entity_id in evicted:
            self._retract_bins(self._entity_bins.pop(entity_id), touched)
            del self._entity_versions[entity_id]
            del self._bin_counts[entity_id]
        for entity_id, history in self._histories.items():
            if self._entity_versions.get(entity_id) == history.version:
                continue
            dirty.append(entity_id)
            old_bins = self._entity_bins.get(entity_id)
            if old_bins is not None:
                self._retract_bins(old_bins, touched)
            self._ingest_entity(entity_id, history, touched)
        if not dirty and not evicted:
            return CorpusDelta(())

        self._size = len(self._histories)
        self._avg_bins = self._total_bins / self._size if self._size else 0.0
        self._log_size = math.log(self._size) if self._size else 0.0

        # The dict-view cache embeds IDFs; it is lazily rebuilt, so
        # wholesale invalidation is cheap and safe.
        self._bins_with_idf.clear()

        global_drift = abs(self._log_size - old_log_size)
        drift: Dict[Tuple[int, int], float] = {}
        counts = self._df_counts
        df_slot = self._df_slot
        for key, before in touched.items():
            after = counts[df_slot[key]]
            if before <= 0.0 or after <= 0.0 or after == before:
                continue  # new/vanished bins belong to dirty entities only
            drift[key] = abs(
                (self._log_size - math.log(after))
                - (old_log_size - math.log(before))
            )

        self._extend_views(dirty, evicted)
        if evicted:
            self._compact_df_slots()
        return CorpusDelta(tuple(dirty), drift, global_drift, tuple(evicted))

    def mark_stale(self, entity_ids: Iterable[str]) -> None:
        """Have the next :meth:`refresh` re-read these entities whatever
        version it finds them at.  For ids whose history was deleted from
        the backing mapping and may be re-created before that refresh: the
        newcomer restarts at version 0, which the version comparison alone
        cannot tell from the history it replaced.  Ids the corpus does not
        hold are ignored."""
        versions = self._entity_versions
        for entity_id in entity_ids:
            if entity_id in versions:
                versions[entity_id] = STALE_VERSION

    def entities_with_bins(
        self, keys: Iterable[Tuple[int, int]]
    ) -> Set[str]:
        """Entities whose snapshot holds any of the given (window, cell)
        bins — the holders a document-frequency change couples to."""
        by_window: Dict[int, Set[int]] = {}
        for window, cell in keys:
            by_window.setdefault(window, set()).add(cell)
        if not by_window:
            return set()
        holders: Set[str] = set()
        for entity_id, bins in self._entity_bins.items():
            for window, cells in by_window.items():
                present = bins.get(window)
                if present is not None and not cells.isdisjoint(present):
                    holders.add(entity_id)
                    break
        return holders

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """Similarity spatial level the statistics were computed at."""
        return self._level

    @property
    def storage(self) -> str:
        """``"memory"`` (flat views on the heap) or ``"disk"`` (flat
        views memmapped over a chunked column store — see :meth:`spill`)."""
        return "memory" if self._flats is None else self._flats.storage

    @property
    def size(self) -> int:
        """``|U_E|`` — number of entities in the dataset."""
        return self._size

    @property
    def avg_bins(self) -> float:
        """Average ``|H_u|`` across the corpus."""
        return self._avg_bins

    def avg_cells_per_window(self) -> float:
        """Mean distinct cells per populated (entity, window) pair — the
        *density* signal the scoring stage's workload-aware block-size
        heuristic reads (dense corpora produce matrix-shaped interactions
        whose padded power-of-two buckets cost memory in proportion to
        the block; see :func:`~repro.core.kernels.workload_block_size`).
        """
        populated = sum(len(bins) for bins in self._entity_bins.values())
        return self._total_bins / populated if populated else 0.0

    @property
    def entities(self) -> List[str]:
        """Entity ids present in the corpus."""
        return list(self._histories)

    def history(self, entity_id: str) -> MobilityHistory:
        """The history of one entity."""
        return self._histories[entity_id]

    def histories(self) -> Dict[str, MobilityHistory]:
        """All histories (do not mutate)."""
        return self._histories

    # ------------------------------------------------------------------
    # Eq. 3 and Eq. 2 support
    # ------------------------------------------------------------------
    def document_frequency(self, window: int, cell: int) -> int:
        """Number of histories containing time-location bin (window, cell)."""
        slot = self._df_slot.get((window, cell))
        return 0 if slot is None else int(self._df_counts[slot])

    def idf(self, window: int, cell: int) -> float:
        """``idf(e, E)`` of Eq. 3 (natural log).

        A bin no history contains would be infinitely surprising; it cannot
        arise for bins taken from corpus histories, so we raise rather than
        return infinity.
        """
        slot = self._df_slot.get((window, cell))
        df = 0.0 if slot is None else self._df_counts[slot]
        if df <= 0:
            raise KeyError(f"bin (window={window}, cell={cell}) not in corpus")
        return self._log_size - math.log(df)

    def relative_size(self, entity_id: str) -> float:
        """``|H_u| / avg(|H_u'|)`` — the BM25-style relative history size
        (``|H_u|`` is maintained per entity, never recounted here)."""
        if self._avg_bins <= 0:
            return 1.0
        return self._bin_counts[entity_id] / self._avg_bins

    def length_norm(self, entity_id: str, b: float) -> float:
        """``L(u, E) = (1 - b) + b * relative_size`` from Eq. 2."""
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        return (1.0 - b) + b * self.relative_size(entity_id)

    def history_sizes(self, entity_ids: Iterable[str]) -> np.ndarray:
        """``|H_u|`` of each entity as one float64 array (the maintained
        bin counts — no history is recounted)."""
        counts = self._bin_counts
        return np.fromiter(
            (counts[entity_id] for entity_id in entity_ids), np.float64
        )

    def size_norms(self, sizes: np.ndarray, b: float) -> np.ndarray:
        """``L(u, E)`` for an array of history sizes: the same two IEEE
        operations per element as :meth:`length_norm`, so the values are
        bit-identical to the scalar form."""
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        if self._avg_bins <= 0:
            return np.ones(len(sizes))
        return (1.0 - b) + b * (sizes / self._avg_bins)

    def history_versions(self, entity_ids: Iterable[str]) -> np.ndarray:
        """The backing histories' current version counters as one int64
        array — the key column of a
        :meth:`~repro.core.score_cache.ScoreCache.lookup_batch`."""
        histories = self._histories
        return np.fromiter(
            (histories[entity_id].version for entity_id in entity_ids),
            np.int64,
        )

    def bins_with_idf(self, entity_id: str) -> BinsWithIdf:
        """Per-window ``((cell, idf), ...)`` tuples for the inner loop
        of the similarity computation (cached)."""
        cached = self._bins_with_idf.get(entity_id)
        if cached is not None:
            return cached
        log_size = self._log_size
        df_slot = self._df_slot
        counts = self._df_counts
        annotated: BinsWithIdf = {}
        for window, cells in self._histories[entity_id].bins(self._level).items():
            annotated[window] = tuple(
                (cell, log_size - math.log(counts[df_slot[(window, cell)]]))
                for cell in cells
            )
        self._bins_with_idf[entity_id] = annotated
        return annotated

    # ------------------------------------------------------------------
    # array views (batch-kernel support)
    # ------------------------------------------------------------------
    def cell_table(self) -> CellTable:
        """Geometry arrays over every distinct cell of this corpus (cached).

        Built lazily on first use so purely-scalar runs never pay for it;
        extended in place (new rows appended) when a refresh discovers new
        cells.  Values are taken from the scalar
        :class:`~repro.geo.cell.CellId` geometry (centre, circumradius), so
        the batch kernel and the scalar oracle operate on the *same*
        per-cell constants.
        """
        if self._cell_table is not None:
            return self._cell_table
        distinct = sorted({cell for _, cell in self._df_slot})
        count = len(distinct)
        lat = np.empty(count, dtype=np.float64)
        lng = np.empty(count, dtype=np.float64)
        radius = np.empty(count, dtype=np.float64)
        slot_of: Dict[int, int] = {}
        for slot, cell in enumerate(distinct):
            cell_id = CellId(cell)
            center = cell_id.center()
            lat[slot] = center.lat_radians
            lng[slot] = center.lng_radians
            radius[slot] = cell_id.circumradius_meters()
            slot_of[cell] = slot
        self._cell_table = CellTable(
            slot_of=slot_of,
            cell_ids=np.asarray(distinct, dtype=np.uint64),
            lat=lat,
            lng=lng,
            cos_lat=np.cos(lat),
            radius=radius,
        )
        return self._cell_table

    def _extend_cell_table(self, cells: Iterable[int]) -> None:
        """Append geometry rows for cells the table does not know yet."""
        table = self._cell_table
        if table is None:
            return  # never built; the lazy build will see everything
        fresh = sorted({cell for cell in cells if cell not in table.slot_of})
        if not fresh:
            return
        count = len(fresh)
        lat = np.empty(count, dtype=np.float64)
        lng = np.empty(count, dtype=np.float64)
        radius = np.empty(count, dtype=np.float64)
        # Copy the directory: the superseded CellTable is frozen, and
        # callers may still hold it — its slot_of must keep describing
        # exactly the rows its arrays have.
        slot_of = dict(table.slot_of)
        base = len(table.cell_ids)
        for offset, cell in enumerate(fresh):
            cell_id = CellId(cell)
            center = cell_id.center()
            lat[offset] = center.lat_radians
            lng[offset] = center.lng_radians
            radius[offset] = cell_id.circumradius_meters()
            slot_of[cell] = base + offset
        self._cell_table = CellTable(
            slot_of=slot_of,
            cell_ids=np.concatenate(
                [table.cell_ids, np.asarray(fresh, dtype=np.uint64)]
            ),
            lat=np.concatenate([table.lat, lat]),
            lng=np.concatenate([table.lng, lng]),
            cos_lat=np.concatenate([table.cos_lat, np.cos(lat)]),
            radius=np.concatenate([table.radius, radius]),
        )

    def arrays(self) -> CorpusArrays:
        """The corpus-wide flat bin arrays (see :meth:`window_index`)."""
        if self._flats is None:
            self._build_arrays()
        column = self._flats.column
        return CorpusArrays(
            cells=column("cells"), slots=column("slots"), idf=column("idf")
        )

    def window_index(self, entity_id: str) -> WindowIndex:
        """One entity's window directory into :meth:`arrays` (cached).

        Mirrors :meth:`bins_with_idf` exactly — same windows, same cell
        order (ascending id = Morton order), same IDF values — but laid
        out for the batch kernel's vectorized gathers.
        """
        if self._flats is None:
            self._build_arrays()
        return self._window_index[entity_id]

    def _entity_layout(
        self, entity_id: str, base: int,
        cells_out: List[int], slots_out: List[int], keys_out: List[int],
    ) -> WindowIndex:
        """Append one entity's flat layout (starting at absolute offset
        ``base + len(cells_out)``) and return its directory."""
        slot_of = self.cell_table().slot_of
        df_slot = self._df_slot
        bins = self._entity_bins[entity_id]
        windows = np.fromiter(sorted(bins), dtype=np.int64, count=len(bins))
        offsets = np.empty(len(bins), dtype=np.int64)
        counts = np.empty(len(bins), dtype=np.int64)
        slices: Dict[int, Tuple[int, int]] = {}
        for k, window in enumerate(windows.tolist()):
            cells = bins[window]
            offset = base + len(cells_out)
            offsets[k] = offset
            counts[k] = len(cells)
            slices[window] = (offset, len(cells))
            for cell in cells:
                cells_out.append(cell)
                slots_out.append(slot_of[cell])
                keys_out.append(df_slot[(window, cell)])
        return WindowIndex(
            windows=windows, offsets=offsets, counts=counts, slices=slices
        )

    def _refresh_idf_flat(self) -> None:
        """Re-derive the flat IDF column from the current document
        frequencies (garbage entries may reference retired bins; clamping
        keeps them finite — they are never gathered)."""
        counts = np.asarray(self._df_counts, dtype=np.float64)
        log_size = self._log_size
        self._flats.derive(
            "idf",
            "keys",
            lambda keys: log_size - np.log(np.maximum(counts[keys], 1.0)),
        )

    # ------------------------------------------------------------------
    # out-of-core flats
    # ------------------------------------------------------------------
    def spill(
        self,
        directory: Path,
        *,
        chunk_rows: Optional[int] = None,
        cache_chunks: int = 8,
    ) -> None:
        """Move the flat array views out of core into a chunked column
        store under ``directory`` (``storage`` becomes ``"disk"``).

        Entities are first re-packed in Hilbert order of a representative
        cell (the first cell of each entity's layout) so chunks hold
        spatially adjacent entities — per-entity slices are untouched, so
        every score and link is bit-identical to memory mode.  After the
        spill, ``arrays()`` / ``window_index()`` / ``cell_table()`` serve
        the same objects over read-only memmaps: kernels and the scalar
        oracle are unchanged, and maintenance passes stream through a
        ``cache_chunks``-bounded chunk LRU instead of materialising
        columns.

        The disk backend is built in full before it replaces the heap
        one, so a spill that fails leaves a working in-memory corpus.
        """
        if self.storage == "disk":
            raise RuntimeError("corpus flats are already disk-backed")
        if self._flats is None:
            self._build_arrays()
        # Directories point at live rows, garbage or not: order first,
        # then one compaction both drops the garbage and re-packs.
        cells = self._flats.column("cells")

        def _entity_key(item: Tuple[str, WindowIndex]) -> Tuple[int, str]:
            entity_id, index = item
            if not len(index.offsets):
                return (-1, entity_id)
            return (int(hilbert_key(int(cells[index.offsets[0]]))), entity_id)

        self._window_index = dict(
            sorted(self._window_index.items(), key=_entity_key)
        )
        self._compact()
        self._flats = DiskColumns(
            directory,
            self._flats,
            chunk_rows=chunk_rows,
            cache_chunks=cache_chunks,
        )

    def _build_arrays(self) -> None:
        """Materialise the flat layout for every entity in one pass."""
        self._flats = MemoryColumns()
        self._append_layouts(self._histories)

    def _append_layouts(self, entity_ids: Iterable[str]) -> None:
        """Append the entities' current layouts to the flats and repoint
        their window directories (superseded slices become garbage), then
        re-derive the IDF column."""
        base = len(self._flats.column("cells"))
        cells_new: List[int] = []
        slots_new: List[int] = []
        keys_new: List[int] = []
        for entity_id in entity_ids:
            old_index = self._window_index.get(entity_id)
            if old_index is not None:
                self._flat_live -= int(old_index.counts.sum())
            index = self._entity_layout(
                entity_id, base, cells_new, slots_new, keys_new
            )
            self._window_index[entity_id] = index
            self._flat_live += int(index.counts.sum())
        if cells_new:
            self._flats.append(
                {"cells": cells_new, "slots": slots_new, "keys": keys_new}
            )
        self._refresh_idf_flat()

    def _extend_views(
        self, dirty: List[str], evicted: Sequence[str] = ()
    ) -> None:
        """Fold a delta into the array views: append dirty entities' new
        layouts, drop evicted entities' directories outright, compact
        when garbage warrants it."""
        self._extend_cell_table(
            cell
            for entity_id in dirty
            for cells in self._entity_bins[entity_id].values()
            for cell in cells
        )
        if self._flats is None:
            return  # array views never built; nothing to extend
        for entity_id in evicted:
            old_index = self._window_index.pop(entity_id, None)
            if old_index is not None:
                self._flat_live -= int(old_index.counts.sum())
        self._append_layouts(dirty)
        entries = len(self._flats.column("cells"))
        if evicted:
            # Eviction exists to bound memory: reclaim the retired slices
            # now rather than waiting for garbage to outweigh live data,
            # so steady-state flats track the live entities exactly.
            if self._flat_live < entries:
                self._compact()
        elif self._flat_live < _COMPACT_LIVE_FRACTION * entries:
            self._compact()

    def _compact(self) -> None:
        """Drop garbage slices: gather every entity's live flat entries
        into fresh contiguous arrays and rebase the window directories."""
        gathers: List[np.ndarray] = []
        cursor = 0
        for entity_id, index in self._window_index.items():
            total = int(index.counts.sum())
            if not total:
                continue
            within = np.concatenate(
                ([0], np.cumsum(index.counts)[:-1])
            )
            gathers.append(
                np.repeat(index.offsets - within, index.counts)
                + np.arange(total)
            )
            offsets = cursor + within
            self._window_index[entity_id] = WindowIndex(
                windows=index.windows,
                offsets=offsets,
                counts=index.counts,
                slices={
                    int(w): (int(o), int(c))
                    for w, o, c in zip(
                        index.windows.tolist(),
                        offsets.tolist(),
                        index.counts.tolist(),
                    )
                },
            )
            cursor += total
        order = (
            np.concatenate(gathers)
            if gathers
            else np.empty(0, dtype=np.int64)
        )
        self._flats.gather(order)
        self._flat_live = len(order)

    def _compact_df_slots(self) -> None:
        """Recycle df slots whose count fell to zero (no holder left).

        Slots are normally never recycled — flat entries reference them by
        index across refreshes — but after an eviction the only zero-count
        keys are bins *no surviving entity holds*, and (once the flats are
        compacted) no live flat entry references them.  Rebuilding the
        slot directory keeps the document-frequency table proportional to
        the live bins rather than to every bin ever seen — without it, a
        sliding-window stream would leak one slot per (window, cell) key
        forever.  Call only after :meth:`_compact` has purged garbage flat
        entries (they may reference dead slots).
        """
        counts = self._df_counts
        live = [
            (key, slot) for key, slot in self._df_slot.items()
            if counts[slot] > 0.0
        ]
        if len(live) == len(counts):
            return
        remap = np.full(len(counts), -1, dtype=np.int64)
        new_slot: Dict[Tuple[int, int], int] = {}
        new_counts: List[float] = []
        for key, slot in live:
            remap[slot] = len(new_counts)
            new_slot[key] = len(new_counts)
            new_counts.append(counts[slot])
        self._df_slot = new_slot
        self._df_counts = new_counts
        if self._flats is not None:
            self._flats.derive("keys", "keys", lambda keys: remap[keys])

    # ------------------------------------------------------------------
    # state: one capture for rollback and snapshots
    # ------------------------------------------------------------------
    #: The state of a corpus, by attribute (minus the underscore): the one
    #: enumeration :meth:`checkpoint` and :meth:`restore` both walk.
    #: Containers :meth:`refresh` mutates in place are shallow-copied out
    #: *and* in; the rest — scalars and the frozen ``CellTable`` — is
    #: replaced, never mutated, so travels by reference.  The flat columns
    #: are the backend's to capture; ``_histories`` is the caller's
    #: mapping, not state.
    _COPIED_STATE = (
        "df_slot", "df_counts", "entity_bins", "entity_versions",
        "bins_with_idf", "window_index",
    )
    _SHARED_STATE = (
        "level", "total_bins", "size", "avg_bins", "log_size", "cell_table",
        "flat_live",
    )

    def checkpoint(self) -> Dict[str, object]:
        """The corpus' whole state as a plain dict, for :meth:`restore`.

        A relink rollback keeps it in memory (cheap — references plus
        shallow container copies); a durable snapshot pickles the very
        same dict.  The flat columns ride along as their backend's own
        capture (``None`` while the array views are unbuilt).
        """
        state = {name: getattr(self, "_" + name) for name in self._SHARED_STATE}
        for name in self._COPIED_STATE:
            state[name] = getattr(self, "_" + name).copy()
        state["cache_token"] = self.cache_token
        state["flats"] = None if self._flats is None else self._flats.checkpoint()
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Become the corpus a :meth:`checkpoint` captured, discarding
        every refresh/compact since — this corpus rewound (rollback), or
        a fresh one built over the captured histories (restart; the
        caller restores the histories mapping itself).  The capture is
        only read, so it supports any number of restores.

        The flats backend rewinds itself; a corpus whose array views are
        unbuilt adopts the captured columns on the heap (and may
        :meth:`spill` afterwards — storage is not state).  The captured
        cache token is adopted, and reserved if it is a default one.
        """
        for name in self._SHARED_STATE:
            setattr(self, "_" + name, state[name])
        for name in self._COPIED_STATE:
            setattr(self, "_" + name, state[name].copy())
        self._bin_counts = {
            entity_id: sum(map(len, bins.values()))
            for entity_id, bins in self._entity_bins.items()
        }
        self.cache_token = state["cache_token"]
        reserve_cache_token(self.cache_token)
        if state["flats"] is None:
            self._flats = None
        else:
            if self._flats is None:
                self._flats = MemoryColumns()
            self._flats.restore(state["flats"])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def memory_stats(self) -> Dict[str, int]:
        """Footprint counters of the live data structures.

        ``flat_entries`` is the allocated flat-array length (live +
        garbage); ``flat_live`` the entries reachable through current
        window directories.  On a retention-bounded stream the two stay
        equal after every eviction (eager compaction), which is the
        bounded-memory evidence ``benchmarks/bench_retention.py`` records.

        ``flat_resident_bytes`` is the RAM the flat views actually
        occupy: the arrays' own bytes in memory mode, the chunk LRU's
        resident copies in disk mode (the memmapped columns live in the
        page cache, not the heap) — the ledger
        ``benchmarks/bench_out_of_core.py`` compares across backends.
        """
        flats = self._flats
        return {
            "flat_resident_bytes": 0 if flats is None else int(flats.resident_bytes),
            "entities": self._size,
            "total_bins": int(self._total_bins),
            "df_slots": len(self._df_counts),
            "flat_entries": 0 if flats is None else len(flats.column("cells")),
            "flat_live": self._flat_live,
            "cell_rows": (
                0 if self._cell_table is None else len(self._cell_table.cell_ids)
            ),
        }
