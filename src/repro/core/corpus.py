"""Corpus-level statistics over one dataset's mobility histories.

The similarity score of Eq. 2 needs two dataset-level quantities:

* **IDF** (Eq. 3): ``idf(e, E) = ln(|U_E| / df(e))`` where ``df(e)`` is the
  number of histories containing time-location bin ``e`` — uniqueness makes
  a matching bin stronger evidence;
* **average history size**: the denominator of the BM25-style length
  normalisation ``L(u, E)``.

:class:`HistoryCorpus` maintains both at a fixed similarity spatial level
and exposes per-entity bins annotated with their IDF so the inner similarity
loop does no dictionary lookups beyond one per window.

One store, derived views
------------------------

A history's stored ``(window, cell, count)`` columns
(:mod:`repro.core.history`) are the record of what an entity did.  The
corpus derives *its* shape of the same bins from them — re-parented to
the similarity level, de-duplicated, annotated — and keeps exactly one
copy: the **flat columns** (:meth:`HistoryCorpus.arrays` +
:meth:`HistoryCorpus.window_index`, backed by
:meth:`HistoryCorpus.cell_table`) that the vectorized batch kernel
(:mod:`repro.core.kernels`) consumes — one corpus-wide layout of cell
ids, geometry-table slots and document-frequency slots, each entity
owning one contiguous slice with a per-window directory.  A bin's IDF
depends only on its df slot and the corpus size, so it is not a flat
column: the corpus keeps one value per df slot, and the kernel gathers
it through the ``keys`` column.  Cells
within a window are sorted by cell id, which *is* Morton (Z-order) order
in this grid (see :mod:`repro.geo.cell`), so consecutive slots reference
spatially nearby centroids and the kernel's gathers stay cache-friendly.

Everything else is derived from that store and nothing else holds bins:
``|H_u|`` is the length of an entity's slice, the document frequencies
are a count over the ``keys`` column (one slot per distinct bin, found by
binary search on ``window << 32 | cell-table row``), and the per-window
``(cell, idf)`` tuples the scalar similarity path iterates
(:meth:`HistoryCorpus.bins_with_idf`) are computed per entity on demand
from the history's own scalar re-binning — the oracle never reads the
flats it is compared against.

Streaming support — *delta maintenance instead of rebuilds*
-----------------------------------------------------------

A corpus is **live**: it keeps references to the history objects it was
built from, remembers each history's
:attr:`~repro.core.history.MobilityHistory.version`, and
:meth:`HistoryCorpus.refresh` folds any growth into the statistics and
flat columns *in place* — one array pass over the changed entities,
which is also how the corpus is built (a refresh from empty):

* document frequencies are updated by retracting the df slots named by
  the dirty entities' superseded flat slices and counting their new bins
  (O(changed bins), not O(corpus));
* the flat columns are **extended**, not re-materialised: a dirty
  entity's new layout is appended and its :class:`WindowIndex` repointed,
  leaving the old slice as garbage that a compaction pass reclaims once
  it outweighs the live data; new cells append rows to the
  :class:`CellTable`;
* the per-slot IDF vector is re-derived in one vectorized pass over the
  updated document-frequency table (every flat entry remembers its df
  slot), so clean entities' rows pick up global IDF movement without any
  per-entity Python work and without rewriting a flat column.

**Removal is a first-class delta too** (the retention path of
:mod:`repro.core.retention`): deleting an entity from the backing
histories mapping and calling :meth:`refresh` retracts its slice from the
document frequencies, drops its window directory (the flat slice becomes
garbage, reclaimed eagerly through the compaction pass so steady-state
memory tracks the *live* entities), reclaims df slots no surviving entity
references, and reports the eviction on :attr:`CorpusDelta.evicted`.
Remaining entities see the same IDF-drift accounting as growth deltas — a
retired holder moves a shared bin's document frequency exactly like a new
one does.

:meth:`refresh` reports what changed as a :class:`CorpusDelta` — the dirty
entity set plus the shared bins whose IDF drifted — which is exactly what
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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geo.batch import parent_ids
from ..geo.cell import CellId
from ..store.columns import COLUMNS, DiskColumns, FlatColumns, MemoryColumns
from ..store.hilbert import hilbert_key
from .history import MobilityHistory, leaf_columns, run_starts

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

#: A bin's identity inside one corpus is the single integer ``window <<
#: 32 | cell-table row`` (rows are append-only, so it never changes):
#: what makes the document-frequency table searchable by bisection.
#: Good for 2**31 leaf windows and 2**32 distinct cells per corpus.
_ROW_BITS = 32

#: A version no history ever has (they count up from 0): what
#: :meth:`HistoryCorpus.mark_stale` writes over a resident's version so
#: the next refresh reads the entity as changed.  Its value, -1, is
#: what corpus captures in existing snapshots hold for such an entity.
_STALE = -1


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

    ``cells`` / ``slots`` / ``keys`` are parallel arrays over all (entity,
    window, cell) bins of the corpus, window-major per entity with cells
    Morton-sorted inside each window; ``keys`` names each bin's
    document-frequency slot, and ``idf_by_slot`` holds Eq. 3 per slot, so
    a bin's IDF is ``idf_by_slot[keys[i]]``.  Per entity,
    :class:`WindowIndex` records which slice of the flats each populated
    window occupies, so the batch kernel's gather is pure fancy indexing.

    After a :meth:`HistoryCorpus.refresh` the flats may contain *garbage*
    slices (superseded entity layouts); they are unreachable through any
    current :class:`WindowIndex` and are reclaimed by compaction.  A
    ``CorpusArrays`` instance obtained before a refresh must not be mixed
    with window indices obtained after one.
    """

    cells: np.ndarray  # (T,) uint64 cell ids
    slots: np.ndarray  # (T,) int64 rows of the corpus CellTable
    keys: np.ndarray  # (T,) int64 document-frequency slots
    idf_by_slot: np.ndarray  # (S,) float64 Eq. 3 value of each df slot

    @property
    def idf(self) -> np.ndarray:
        """Eq. 3 per flat entry, derived from ``keys`` and
        ``idf_by_slot`` on every read: a fresh array, never stored (the
        kernel gathers through the slots instead)."""
        return self.idf_by_slot[self.keys]


@dataclass(frozen=True)
class WindowIndex:
    """One entity's directory into the corpus' :class:`CorpusArrays`.

    ``windows`` is sorted ascending; window ``windows[k]`` owns the flat
    slice ``[offsets[k], offsets[k] + counts[k])``.  Three arrays and
    nothing else: the batch kernel lays a block's directories end to end
    and finds every pair's common windows in one array join (see
    :mod:`repro.core.kernels`), so no per-entity lookup structure is
    kept beside them.
    """

    windows: np.ndarray  # (W,) int64 populated leaf-window indices
    offsets: np.ndarray  # (W,) int64 starts into the corpus flats
    counts: np.ndarray  # (W,) int64 distinct cells per window

    def __len__(self) -> int:
        return len(self.windows)


@dataclass(frozen=True)
class _Resident(WindowIndex):
    """An entity as the corpus holds it: its directory, the history
    ``version`` it was read at, and the one contiguous flat slice
    ``[start, start + size)`` the directory points into — ``size`` is
    ``|H_u|``."""

    version: int
    start: int
    size: int


@dataclass(frozen=True)
class CorpusDelta:
    """What one :meth:`HistoryCorpus.refresh` changed — for
    :class:`~repro.core.streaming.StreamingLinker`, the one record of what
    a relink changed: its LSH upkeep, IDF invalidation and pair table
    all read it.

    Attributes
    ----------
    dirty_entities:
        Entities whose history grew (or appeared) since the last refresh,
        in the backing mapping's order; on the cold build (the refresh
        from empty), every entity.
    evicted:
        Entities removed from the backing histories mapping since the
        last refresh (entity retirement — see
        :mod:`repro.core.retention`); their bins were retracted from the
        statistics and their flat slices reclaimed.
    idf_drift:
        The ``(window, cell)`` bins whose document frequency changed
        while remaining shared (old df > 0 and new df > 0) — their idf
        moved, so every holder's cached pair totals are stale.  Bins
        appearing for the first time, or vanishing entirely, are held
        only by dirty entities and need no entry.
    global_drift:
        ``|Δ ln |U_E||`` — the IDF shift every *untouched* bin experienced
        because the corpus size changed (zero when no entity was added).
    """

    dirty_entities: Tuple[str, ...]
    idf_drift: Tuple[Tuple[int, int], ...] = ()
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
        self._size = 0
        self._total_bins = 0
        # Who is resident: per entity, its window directory, the version
        # it was read at and its flat slice.
        self._window_index: Dict[str, _Resident] = {}
        # Document frequencies, by slot: the bin a slot counts
        # (``window << 32 | cell-table row``) and how many histories hold
        # it, plus the slots in ascending bin order for the bisection.
        # Slots are recycled only by :meth:`_compact_df_slots`, so flat
        # entries reference them across refreshes and IDFs re-derive
        # vectorized.  Like the cell table and the flat columns, these
        # arrays are replaced, never written, so a capture holds them by
        # reference.
        self._df_bins = np.empty(0, dtype=np.int64)
        self._df_counts = np.empty(0, dtype=np.float64)
        self._df_order = np.empty(0, dtype=np.int64)
        # Derived from the state above, never captured: Eq. 3 per df slot
        # (see :meth:`_derive_idf`) and the populated (entity, window)
        # pairs :meth:`avg_cells_per_window` divides by.
        self._idf_by_slot = np.empty(0, dtype=np.float64)
        self._populated = 0
        no_geometry = np.empty(0, dtype=np.float64)
        self._cell_table = CellTable(
            {}, np.empty(0, dtype=np.uint64),
            no_geometry, no_geometry, no_geometry, no_geometry,
        )
        # The flat columns: a :mod:`repro.store.columns` backend — on the
        # heap until :meth:`spill` hands them to the disk one.  The corpus
        # decides what changes; the backend decides where it lives.
        self._flats: FlatColumns = MemoryColumns()
        self._flat_live = 0
        self._bins_with_idf: Dict[str, BinsWithIdf] = {}
        self.refresh()

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> CorpusDelta:
        """Fold history growth — and entity removal — into the corpus,
        in place.

        Scans the backing histories for version changes (and new
        entities), re-derives exactly those in one array pass, updates
        size / average / document frequencies, extends the flat columns,
        and invalidates the per-entity caches the delta made stale.  Cost
        is proportional to the changed histories (plus vectorized passes
        over the document-frequency table and the flats), not to the
        corpus.  Building a corpus is this, from empty.

        Entities *deleted* from the backing mapping since the last refresh
        are retired symmetrically: their slices are retracted, the garbage
        reclaimed eagerly by compaction, and df slots no surviving entity
        references are recycled — so a corpus on a retention-bounded
        stream stays bounded-memory.  They are reported on
        :attr:`CorpusDelta.evicted`.
        """
        if not self._histories:
            # Check eligibility before touching any state: raising midway
            # through retraction would leave the statistics inconsistent.
            raise ValueError("refresh would leave the corpus empty")
        resident = self._window_index
        evicted = [
            entity_id for entity_id in resident if entity_id not in self._histories
        ]
        dirty: List[str] = []
        for entity_id, history in self._histories.items():
            held = resident.get(entity_id)
            if held is not None and held.version == history.version:
                continue
            if self._level > history.storage_level:
                raise ValueError(
                    f"level {self._level} is finer than storage level "
                    f"{history.storage_level}"
                )
            dirty.append(entity_id)
        if not dirty and not evicted:
            return CorpusDelta(())

        # Out: a superseded slice names the df slots of its own bins.
        stale = [
            resident[entity_id]
            for entity_id in (*evicted, *dirty)
            if entity_id in resident
        ]
        flat_keys = self._flats.column("keys")
        retracted = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [flat_keys[held.start : held.start + held.size] for held in stale]
        )
        for entity_id in evicted:
            del resident[entity_id]
        self._populated -= sum(len(held) for held in stale)

        # In: the dirty histories' stored bins, re-parented.  Ancestors of
        # ascending cells ascend, so the joined rows stay sorted by
        # (entity, window, cell) and a level's distinct bins are its runs.
        histories = [self._histories[entity_id] for entity_id in dirty]
        rows, windows, cells, _ = leaf_columns(histories)
        cells = parent_ids(cells, self._level)
        distinct = run_starts(rows, windows, cells)
        rows, windows, cells = rows[distinct], windows[distinct], cells[distinct]
        slots = self._cell_slots(cells)
        bins = (windows << _ROW_BITS) | slots
        keys = self._bin_slots(bins)
        fresh = np.unique(bins[keys < 0])
        if len(fresh):
            order = self._df_order
            self._df_order = np.insert(
                order,
                np.searchsorted(self._df_bins, fresh, sorter=order),
                np.arange(len(order), len(order) + len(fresh)),
            )
            self._df_bins = np.concatenate([self._df_bins, fresh])
            keys = self._bin_slots(bins)
        before = np.concatenate([self._df_counts, np.zeros(len(fresh))])
        self._df_counts = (
            before
            + np.bincount(keys, minlength=len(before))
            - np.bincount(retracted, minlength=len(before))
        )

        # Each dirty entity's slice of the appended rows, and inside it
        # one directory entry per (entity, window) run.
        base = len(flat_keys)
        heads = np.flatnonzero(run_starts(rows, windows))
        spans = np.diff(np.append(heads, len(rows)))
        starts = np.searchsorted(rows, np.arange(len(dirty) + 1))
        entries = np.searchsorted(heads, starts).tolist()
        starts = starts.tolist()
        for k, (entity_id, history) in enumerate(zip(dirty, histories)):
            lo, hi = entries[k], entries[k + 1]
            resident[entity_id] = _Resident(
                windows[heads[lo:hi]], base + heads[lo:hi], spans[lo:hi],
                history.version, base + starts[k], starts[k + 1] - starts[k],
            )
        self._populated += len(heads)
        self._flats.append(dict(zip(COLUMNS, (cells, slots, keys))))

        grown = len(rows) - len(retracted)
        self._total_bins += grown
        self._flat_live += grown
        old_log_size = math.log(self._size) if self._size else 0.0
        self._size = len(self._histories)
        log_size = math.log(self._size)
        # The oracle cache embeds IDFs; it is lazily rebuilt, so
        # wholesale invalidation is cheap and safe.
        self._bins_with_idf.clear()

        touched = np.unique(np.concatenate([retracted, keys]))
        was, now = before[touched], self._df_counts[touched]
        # New / vanished bins belong to dirty entities only.
        shared = (was > 0.0) & (now > 0.0) & (was != now)
        moved = self._df_bins[touched[shared]]
        drift = tuple(
            zip(
                (moved >> _ROW_BITS).tolist(),
                self._cell_table.cell_ids[moved & ((1 << _ROW_BITS) - 1)].tolist(),
            )
        )

        # Eviction exists to bound memory: reclaim the retired slices now
        # rather than waiting for garbage to outweigh live data, so
        # steady-state flats track the live entities exactly.
        allocated = base + len(rows)
        if self._flat_live < (
            allocated if evicted else _COMPACT_LIVE_FRACTION * allocated
        ):
            self._compact()
        if evicted:
            self._compact_df_slots()
        self._derive_idf()
        return CorpusDelta(
            tuple(dirty), drift, abs(log_size - old_log_size), tuple(evicted)
        )

    def _cell_slots(self, cells: np.ndarray) -> np.ndarray:
        """The :class:`CellTable` row of each cell, appending a geometry
        row (in ascending id order) for every cell the table lacks.

        Values are taken from the scalar :class:`~repro.geo.cell.CellId`
        geometry (centre, circumradius), so the batch kernel and the
        scalar oracle operate on the *same* per-cell constants.
        """
        table = self._cell_table
        distinct, inverse = np.unique(cells, return_inverse=True)
        distinct = distinct.tolist()
        fresh = [cell for cell in distinct if cell not in table.slot_of]
        if fresh:
            # Copy the directory: the superseded CellTable is frozen, and
            # callers may still hold it — its slot_of must keep describing
            # exactly the rows its arrays have.
            slot_of = dict(table.slot_of)
            slot_of.update(zip(fresh, range(len(slot_of), len(slot_of) + len(fresh))))
            geometry = [CellId(cell) for cell in fresh]
            centers = [cell.center() for cell in geometry]
            lat = np.array([center.lat_radians for center in centers])
            table = self._cell_table = CellTable(
                slot_of=slot_of,
                cell_ids=np.concatenate(
                    [table.cell_ids, np.array(fresh, dtype=np.uint64)]
                ),
                lat=np.concatenate([table.lat, lat]),
                lng=np.concatenate(
                    [table.lng, [center.lng_radians for center in centers]]
                ),
                cos_lat=np.concatenate([table.cos_lat, np.cos(lat)]),
                radius=np.concatenate(
                    [table.radius, [cell.circumradius_meters() for cell in geometry]]
                ),
            )
        slot_of = table.slot_of
        return np.fromiter(
            (slot_of[cell] for cell in distinct), np.int64, len(distinct)
        )[inverse]

    def _bin_slots(self, bins: np.ndarray) -> np.ndarray:
        """The document-frequency slot counting each bin (``window << 32
        | cell-table row``), -1 where the table has none."""
        order = self._df_order
        if not len(order):
            return np.full(len(bins), -1, dtype=np.int64)
        at = np.searchsorted(self._df_bins, bins, sorter=order)
        slots = order[np.minimum(at, len(order) - 1)]
        return np.where(self._df_bins[slots] == bins, slots, -1)

    def _slots_of(
        self, windows: Sequence[int], cells: Sequence[int]
    ) -> np.ndarray:
        """:meth:`_bin_slots` for bins spelled ``(window, cell id)``."""
        slot_of = self._cell_table.slot_of
        # A cell without a row yields bin -1, which no slot counts.
        rows = np.fromiter(
            (slot_of.get(cell, -1) for cell in cells), np.int64, len(cells)
        )
        return self._bin_slots(
            (np.asarray(windows, dtype=np.int64) << _ROW_BITS) | rows
        )

    def mark_stale(self, entity_ids: Iterable[str]) -> None:
        """Have the next :meth:`refresh` re-read these entities whatever
        version it finds them at.  For ids whose history was deleted from
        the backing mapping and may be re-created before that refresh: the
        newcomer restarts at version 0, which the version comparison alone
        cannot tell from the history it replaced.  Ids the corpus does not
        hold are ignored."""
        resident = self._window_index
        for entity_id in entity_ids:
            if entity_id in resident:
                resident[entity_id] = replace(
                    resident[entity_id], version=_STALE
                )

    def entities_with_bins(
        self, keys: Iterable[Tuple[int, int]]
    ) -> Set[str]:
        """Entities whose slice holds any of the given (window, cell)
        bins — the holders a document-frequency change couples to."""
        keys = list(keys)
        slots = self._slots_of(
            [window for window, _ in keys], [cell for _, cell in keys]
        )
        hits = np.flatnonzero(np.isin(self._flats.column("keys"), slots[slots >= 0]))
        if not len(hits):
            return set()
        # A hit counts when it falls inside a resident slice (the rest
        # is garbage): bisect the slices' starts.
        starts, sizes = self._slices()
        order = np.lexsort((sizes, starts))  # an empty slice shares its start
        nearest = order[np.searchsorted(starts[order], hits, side="right") - 1]
        inside = (hits >= starts[nearest]) & (hits < starts[nearest] + sizes[nearest])
        entity_ids = list(self._window_index)
        return {entity_ids[k] for k in np.unique(nearest[inside]).tolist()}

    def _slices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every resident's flat slice as ``(starts, sizes)``, in
        directory order."""
        held = self._window_index.values()
        starts = np.fromiter((one.start for one in held), np.int64, len(held))
        sizes = np.fromiter((one.size for one in held), np.int64, len(held))
        return starts, sizes

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
        return self._flats.storage

    @property
    def size(self) -> int:
        """``|U_E|`` — number of entities in the dataset."""
        return self._size

    @property
    def avg_bins(self) -> float:
        """Average ``|H_u|`` across the corpus."""
        return self._total_bins / self._size

    def avg_cells_per_window(self) -> float:
        """Mean distinct cells per populated (entity, window) pair — the
        *density* signal the scoring stage's workload-aware block-size
        heuristic reads (dense corpora produce matrix-shaped interactions,
        whose ``(B, m, n)`` tensors cost memory in proportion to the
        block; see :func:`~repro.core.kernels.workload_block_size`).
        O(1): :meth:`refresh` keeps the count of populated pairs.
        """
        populated = self._populated
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
        slot = self._slots_of([window], [cell])[0]
        return 0 if slot < 0 else int(self._df_counts[slot])

    def idf(self, window: int, cell: int) -> float:
        """``idf(e, E)`` of Eq. 3 (natural log).

        A bin no history contains would be infinitely surprising; it cannot
        arise for bins taken from corpus histories, so we raise rather than
        return infinity.
        """
        df = self.document_frequency(window, cell)
        if df <= 0:
            raise KeyError(f"bin (window={window}, cell={cell}) not in corpus")
        return math.log(self._size) - math.log(df)

    def relative_size(self, entity_id: str) -> float:
        """``|H_u| / avg(|H_u'|)`` — the BM25-style relative history size
        (``|H_u|`` is the length of the entity's flat slice)."""
        if self._total_bins <= 0:
            return 1.0
        return self._window_index[entity_id].size / self.avg_bins

    def length_norm(self, entity_id: str, b: float) -> float:
        """``L(u, E) = (1 - b) + b * relative_size`` from Eq. 2."""
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        return (1.0 - b) + b * self.relative_size(entity_id)

    def history_sizes(self, entity_ids: Iterable[str]) -> np.ndarray:
        """``|H_u|`` of each entity as one float64 array (the lengths of
        their flat slices — no history is recounted)."""
        resident = self._window_index
        return np.fromiter(
            (resident[entity_id].size for entity_id in entity_ids), np.float64
        )

    def size_norms(self, sizes: np.ndarray, b: float) -> np.ndarray:
        """``L(u, E)`` for an array of history sizes: the same two IEEE
        operations per element as :meth:`length_norm`, so the values are
        bit-identical to the scalar form."""
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        if self._total_bins <= 0:
            return np.ones(len(sizes))
        return (1.0 - b) + b * (sizes / self.avg_bins)

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
        log_size = math.log(self._size)
        bins = self._histories[entity_id].bins(self._level)
        slots = self._slots_of(
            [window for window, cells in bins.items() for _ in cells],
            [cell for cells in bins.values() for cell in cells],
        )
        if (slots < 0).any():
            raise KeyError(f"{entity_id!r} changed since the last refresh")
        # Consumed in the order the bins were just listed.
        frequency = iter(self._df_counts[slots].tolist())
        annotated: BinsWithIdf = {
            window: tuple(
                (cell, log_size - math.log(next(frequency))) for cell in cells
            )
            for window, cells in bins.items()
        }
        self._bins_with_idf[entity_id] = annotated
        return annotated

    # ------------------------------------------------------------------
    # array views (batch-kernel support)
    # ------------------------------------------------------------------
    def cell_table(self) -> CellTable:
        """Geometry arrays over every distinct cell of this corpus:
        ascending cell-id order at first build, cells discovered by later
        refreshes appended (see :meth:`_cell_slots`)."""
        return self._cell_table

    def arrays(self) -> CorpusArrays:
        """The corpus-wide flat bin arrays (see :meth:`window_index`)."""
        column = self._flats.column
        return CorpusArrays(
            column("cells"), column("slots"), column("keys"), self._idf_by_slot
        )

    def window_index(self, entity_id: str) -> WindowIndex:
        """One entity's window directory into :meth:`arrays`.

        Mirrors :meth:`bins_with_idf` exactly — same windows, same cell
        order (ascending id = Morton order), same IDF values — but laid
        out for the batch kernel's vectorized gathers.
        """
        return self._window_index[entity_id]

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
        # Directories point at live rows, garbage or not: order first,
        # then one compaction both drops the garbage and re-packs.
        cells = self._flats.column("cells")

        def _entity_key(item: Tuple[str, _Resident]) -> Tuple[int, str]:
            entity_id, held = item
            if not held.size:
                return (-1, entity_id)
            return (int(hilbert_key(int(cells[held.start]))), entity_id)

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

    def _compact(self) -> None:
        """Drop garbage slices: gather every entity's live flat entries
        into fresh contiguous arrays and rebase the window directories."""
        resident = self._window_index
        starts, sizes = self._slices()
        packed = np.cumsum(sizes) - sizes
        order = np.repeat(starts - packed, sizes) + np.arange(int(sizes.sum()))
        for (entity_id, held), start in zip(list(resident.items()), packed.tolist()):
            resident[entity_id] = _Resident(
                held.windows, held.offsets + (start - held.start), held.counts,
                held.version, start, held.size,
            )
        self._flats.gather(order)
        self._flat_live = len(order)

    def _compact_df_slots(self) -> None:
        """Recycle df slots whose count fell to zero (no holder left).

        Slots are normally never recycled — flat entries reference them by
        index across refreshes — but after an eviction the only zero-count
        slots are bins *no surviving entity holds*, and (once the flats are
        compacted) no live flat entry references them.  Dropping them
        keeps the document-frequency table proportional to the live bins
        rather than to every bin ever seen — without it, a sliding-window
        stream would leak one slot per (window, cell) bin forever.  Call
        only after :meth:`_compact` has purged garbage flat entries (they
        may reference dead slots).
        """
        live = self._df_counts > 0.0
        if live.all():
            return
        remap = np.where(live, np.cumsum(live) - 1, -1)
        order = self._df_order
        self._df_order = remap[order[live[order]]]
        self._df_bins = self._df_bins[live]
        self._df_counts = self._df_counts[live]
        self._flats.derive("keys", "keys", lambda keys: remap[keys])

    def _derive_idf(self) -> None:
        """Eq. 3 per df slot, ``ln(size) - ln(max(df, 1))``, from the
        current document frequencies and size (the clamp keeps a slot no
        history holds any more finite — no live flat entry names it)."""
        counts = np.maximum(self._df_counts, 1.0)
        self._idf_by_slot = math.log(self._size) - np.log(counts)

    # ------------------------------------------------------------------
    # state: one capture for rollback and snapshots
    # ------------------------------------------------------------------
    #: The state of a corpus, by attribute (minus the underscore): the one
    #: enumeration :meth:`checkpoint` and :meth:`restore` both walk.
    #: The two per-entity dicts :meth:`refresh` mutates in place are
    #: shallow-copied out *and* in; the rest — scalars, the frozen
    #: ``CellTable``, the document-frequency arrays — is replaced, never
    #: mutated, so travels by reference: nothing that grows with the bins
    #: is copied.  The flat columns are the backend's to capture;
    #: ``_histories`` is the caller's mapping, not state.
    _COPIED_STATE = ("bins_with_idf", "window_index")
    _SHARED_STATE = (
        "level", "total_bins", "size", "cell_table", "flat_live",
        "df_bins", "df_counts", "df_order",
    )

    def checkpoint(self) -> Dict[str, object]:
        """The corpus' whole state as a plain dict, for :meth:`restore`.

        A relink rollback keeps it in memory (cheap — references plus two
        shallow per-entity dict copies); a durable snapshot pickles the
        very same dict.  The flat columns ride along as their backend's
        own capture.
        """
        state = {name: getattr(self, "_" + name) for name in self._SHARED_STATE}
        for name in self._COPIED_STATE:
            state[name] = getattr(self, "_" + name).copy()
        state["cache_token"] = self.cache_token
        state["flats"] = self._flats.checkpoint()
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Become the corpus a :meth:`checkpoint` captured, discarding
        every refresh/compact since — this corpus rewound (rollback), or
        a fresh one built over the captured histories (restart; the
        caller restores the histories mapping itself).  The capture is
        only read, so it supports any number of restores.

        The flats backend rewinds itself; a fresh (heap) corpus adopts
        the captured columns and may :meth:`spill` afterwards — storage
        is not state.  The captured cache token is adopted, and reserved
        if it is a default one.
        """
        for name in self._SHARED_STATE:
            setattr(self, "_" + name, state[name])
        for name in self._COPIED_STATE:
            setattr(self, "_" + name, state[name].copy())
        self.cache_token = state["cache_token"]
        reserve_cache_token(self.cache_token)
        self._flats.restore(state["flats"])
        self._derive_idf()
        self._populated = sum(len(held) for held in self._window_index.values())

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

        ``flat_resident_bytes`` is the RAM the three flat columns
        actually occupy: the arrays' own bytes in memory mode, the chunk
        LRU's resident copies in disk mode (the memmapped columns live in
        the page cache, not the heap) — the ledger
        ``benchmarks/bench_out_of_core.py`` compares across backends.  A
        disk corpus whose relinks never evict streams nothing through
        the LRU (only the df-slot remap does), so it may read 0.  The
        per-slot IDF vector is in RAM on both backends and is not part of
        it: ``df_slots`` float64 values, like the document frequencies.
        """
        return {
            "flat_resident_bytes": int(self._flats.resident_bytes),
            "entities": self._size,
            "total_bins": self._total_bins,
            "df_slots": len(self._df_counts),
            "flat_entries": len(self._flats.column("cells")),
            "flat_live": self._flat_live,
            "cell_rows": len(self._cell_table.cell_ids),
        }
