"""Mobility histories (Sec. 2.3).

A mobility history aggregates one entity's records into *time-location
bins*: per leaf window, the grid cells visited (with counts).

One store, derived views
------------------------

A history *is* three parallel read-only arrays ``(window, cell, count)``
sorted by ``(window, cell)`` at its ``storage_level`` — one row per
distinct bin, ``count`` the summed weight of the records that fell in it.
They are the store of record: ingest replaces them (never writes into
them), a snapshot writes a side's columns concatenated
(:func:`_pack_histories`), and the whole-dataset array passes — LSH
signatures (:func:`repro.lsh.signature.signature_matrix`), corpus
statistics and kernel layout (:class:`~repro.core.corpus.HistoryCorpus`)
— read them joined across histories (:func:`leaf_columns`).

Everything else is a view computed from them on demand and cached until
the next ingest: :meth:`MobilityHistory.bins` and
:meth:`~MobilityHistory.counts_in_window`.  The views re-bin with the
scalar :func:`~repro.geo.cell.parent_id`, so the ``"python"`` scoring
oracle stays independent of the vectorised passes it is tested against.
The paper's Fig. 1 count tree is not built: the signature queries of one
run partition the window axis, so one sort-and-reduce over the columns
answers all of them (:func:`repro.lsh.signature.signature_matrix`); the
tree itself is kept only as the test-side oracle that pass is checked
against.

The temporal grouping is deliberate: the paper partitions hierarchically in
*time*, not space, because alibi detection needs fast retrieval of all cells
an entity touched in a given window (Sec. 2.3).

Histories are stored at a fine ``storage_level`` and re-binned on demand to
any coarser level via integer parent mapping, so one history build serves
both the similarity computation (e.g. level 12) and LSH signatures at an
independently chosen level (Sec. 5.3 varies them separately).

Ingest is one array pass: :func:`ingest_columns` validates the
concatenated records of any number of entities, converts them to cells
and window indices, merges them with what the touched entities already
hold in one sort-and-sum, and hands each entity its slice;
:func:`build_histories`, :meth:`MobilityHistory.from_columns`,
:meth:`MobilityHistory.extend` and
:meth:`~repro.core.streaming.StreamingLinker.observe` are spellings of it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.records import LocationDataset
from ..geo import LatLng, cell_ids_from_degrees
from ..geo.cell import CellId, parent_id
from ..store.snapshot import pack_rows, unpack_rows
from ..temporal import Windowing

__all__ = ["MobilityHistory", "build_histories"]

#: A history's stored columns and their dtypes — one row per distinct
#: bin, sorted by ``(window, cell)``.
_COLUMNS = {"_windows": np.int64, "_cells": np.uint64, "_counts": np.float64}


def run_starts(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows at which any of the parallel columns changes
    value — the first row of each run, once they are sorted together."""
    first = np.zeros(len(columns[0]), dtype=bool)
    first[:1] = True
    for column in columns:
        first[1:] |= column[1:] != column[:-1]
    return first


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: one sort (``np.unique`` hashes,
    which is many times slower on wide-ranged keys)."""
    values = np.sort(values)
    return values[run_starts(values)]


class MobilityHistory:
    """One entity's hierarchical spatio-temporal summary.

    ``windows`` / ``cells`` / ``counts`` are the bins as parallel columns,
    sorted by ``(window, cell)`` with no bin repeated (what
    :func:`ingest_columns` produces); they are copied and kept read-only.
    Bins are exposed as ``{window index: (cell ids...)}`` dictionaries per
    spatial level; cell ids are bare integers (see :mod:`repro.geo.cell`)
    for speed.
    """

    __slots__ = (
        "entity_id",
        "windowing",
        "storage_level",
        "num_records",
        "version",
        "_windows",
        "_cells",
        "_counts",
        "_views",
    )

    def __init__(
        self,
        entity_id: str,
        windowing: Windowing,
        storage_level: int,
        windows: Sequence[int] = (),
        cells: Sequence[int] = (),
        counts: Sequence[float] = (),
        num_records: int = 0,
    ) -> None:
        self.entity_id = entity_id
        self.windowing = windowing
        self.storage_level = storage_level
        self.num_records = num_records
        #: Monotone change counter: bumped by every ingest that adds
        #: records.  :class:`~repro.core.corpus.HistoryCorpus` residency
        #: and :class:`~repro.core.score_cache.ScoreCache` entries key
        #: their validity on it.
        self.version = 0
        self._store(windows, cells, counts)

    def _store(self, *columns: Sequence) -> None:
        """Adopt ``(windows, cells, counts)`` — as read-only copies:
        stored columns are replaced, never written, so whoever holds one
        (a capture, a joined pass) may alias it — and drop every view of
        the old ones."""
        for (name, dtype), values in zip(_COLUMNS.items(), columns):
            column = np.array(values, dtype=dtype)
            column.flags.writeable = False
            setattr(self, name, column)
        self._views: Dict[object, object] = {}

    def __getstate__(self) -> Dict[str, object]:
        """The columns and the scalars — no view is pickled."""
        return {
            name: getattr(self, name) for name in self.__slots__ if name != "_views"
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        for name in _COLUMNS:  # unpickled arrays come back writable
            getattr(self, name).flags.writeable = False
        self._views = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        entity_id: str,
        timestamps: np.ndarray,
        lats: np.ndarray,
        lngs: np.ndarray,
        windowing: Windowing,
        storage_level: int,
        radii: Optional[np.ndarray] = None,
    ) -> "MobilityHistory":
        """Build a history from column arrays (one record per row).

        ``radii`` (optional, metres per record) enables the paper's
        region-record extension (Sec. 2.1): a record whose location is a
        region rather than a point is "copied into multiple cells ... using
        weights" — weight ``1/n`` into each of the ``n`` cells of the
        region's cap cover at ``storage_level``.  Records with a radius
        smaller than the cell remain single-cell with weight 1.
        """
        histories: Dict[str, MobilityHistory] = {}
        ingest_columns(
            histories, [entity_id], [len(timestamps)], timestamps, lats, lngs,
            windowing, storage_level, radii,
        )
        return histories[entity_id]

    def extend(
        self,
        timestamps: np.ndarray,
        lats: np.ndarray,
        lngs: np.ndarray,
        radii: Optional[np.ndarray] = None,
    ) -> None:
        """Append new records in place (streaming ingestion).

        Replaces the columns and drops every cached view; the next query
        recomputes it.  Used by
        :class:`~repro.core.streaming.StreamingLinker` for the
        dynamic-datasets case the paper's introduction motivates.
        """
        ingest_columns(
            {self.entity_id: self}, [self.entity_id], [len(timestamps)],
            timestamps, lats, lngs, self.windowing, self.storage_level, radii,
        )

    # ------------------------------------------------------------------
    # bins
    # ------------------------------------------------------------------
    def _spans(self) -> Dict[int, Tuple[int, int]]:
        """``{window: (first row, end row)}`` of the columns, ascending."""
        spans = self._views.get("spans")
        if spans is None:
            windows, first = np.unique(self._windows, return_index=True)
            ends = first[1:].tolist() + [len(self._windows)]
            spans = dict(zip(windows.tolist(), zip(first.tolist(), ends)))
            self._views["spans"] = spans
        return spans

    def windows(self) -> List[int]:
        """Populated leaf-window indices, ascending."""
        return list(self._spans())

    def latest_window(self) -> int:
        """The most recent populated leaf-window index (-1 when the
        history holds no records) — the activity recency the retention
        policies of :mod:`repro.core.retention` rank entities by."""
        return int(self._windows[-1]) if len(self._windows) else -1

    def bins(self, level: int) -> Dict[int, Tuple[int, ...]]:
        """``{window: (distinct cells at level, sorted)}`` (cached).

        This is ``H_u``, the set of time-location bins of Sec. 3.1.2,
        re-binned at the requested spatial level.
        """
        cached = self._views.get(("bins", level))
        if cached is not None:
            return cached
        if level > self.storage_level:
            raise ValueError(
                f"level {level} is finer than storage level {self.storage_level}"
            )
        cells = self._cells.tolist()
        result: Dict[int, Tuple[int, ...]] = {}
        for window, (lo, hi) in self._spans().items():
            result[window] = tuple(
                sorted({parent_id(cell, level) for cell in cells[lo:hi]})
            )
        self._views[("bins", level)] = result
        return result

    def num_bins(self, level: int) -> int:
        """``|H_u|``: the number of time-location bins at ``level``."""
        return sum(len(cells) for cells in self.bins(level).values())

    def records_in_window(self, window: int) -> int:
        """Number of raw records falling in one leaf window (a region
        record's weights add up to the one record it is)."""
        lo, hi = self._spans().get(window, (0, 0))
        return int(round(float(self._counts[lo:hi].sum())))

    def counts_in_window(self, window: int, level: int) -> Counter:
        """Cell-id counts within one leaf window at ``level``."""
        lo, hi = self._spans().get(window, (0, 0))
        rebinned: Counter = Counter()
        for cell, count in zip(
            self._cells[lo:hi].tolist(), self._counts[lo:hi].tolist()
        ):
            rebinned[parent_id(cell, level)] += count
        return rebinned

    def __repr__(self) -> str:
        return (
            f"MobilityHistory({self.entity_id!r}, records={self.num_records}, "
            f"windows={len(self._spans())}, storage_level={self.storage_level})"
        )


def _spread_regions(
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray],
    lats: np.ndarray,
    lngs: np.ndarray,
    radii: np.ndarray,
    storage_level: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(row, window, cell)`` record columns with every region record —
    a radius beyond half its cell's circumradius — replaced by one row per
    cell of its cap cover, plus the weight column: ``1/n`` over the ``n``
    cells of a cover, 1 for a point (the Sec. 2.1 region extension)."""
    from ..geo.coverage import cover_cap  # deferred: optional path

    cells = columns[2]
    covers: Dict[int, List[int]] = {}
    for row in np.flatnonzero(radii > 0.0).tolist():
        if radii[row] > CellId(int(cells[row])).circumradius_meters() * 0.5:
            center = LatLng.from_degrees(float(lats[row]), float(lngs[row]))
            covers[row] = [
                cell.id for cell in cover_cap(center, float(radii[row]), storage_level)
            ]
    repeats = np.ones(len(cells), dtype=np.int64)
    repeats[list(covers)] = [len(cover) for cover in covers.values()]
    rows, windows, cells = (np.repeat(column, repeats) for column in columns)
    starts = np.cumsum(repeats) - repeats
    for row, cover in covers.items():
        cells[starts[row] : starts[row] + len(cover)] = cover
    return rows, windows, cells, np.repeat(1.0 / repeats, repeats)


def ingest_columns(
    histories: Dict[str, MobilityHistory],
    entity_ids: Sequence[str],
    lengths: Sequence[int],
    timestamps: np.ndarray,
    lats: np.ndarray,
    lngs: np.ndarray,
    windowing: Windowing,
    storage_level: int,
    radii: Optional[np.ndarray] = None,
) -> None:
    """Fold the concatenated records of several entities into
    ``histories``: entity ``k`` owns the next ``lengths[k]`` rows of the
    columns; an id the mapping lacks gets a new history (version 0), a
    known one that gains records gets new columns (version bumped, views
    dropped), and one given no rows is left exactly as it was.

    All-or-nothing: cells and window indices are computed for all rows at
    once — one :func:`~repro.geo.cell_ids_from_degrees` call however many
    entities there are — and everything is checked, every region cover
    expanded, before any history is touched.  A non-finite timestamp or
    coordinate, a record before the windowing origin, or a non-finite or
    negative radius raises naming the first entity that has one.
    ``radii`` as in :meth:`MobilityHistory.from_columns`.

    The new rows are merged with the touched entities' stored bins in one
    stable sort by ``(entity, window, cell)`` and summed per bin left to
    right — a stored sum first, then the records in arrival order — so
    the columns are bit for bit those of a one-shot build of the same
    records, whatever the batching.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if timestamps.size != sum(lengths):
        raise ValueError("lengths must add up to one entry per record")
    if radii is not None:
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != timestamps.shape:
            raise ValueError("radii must have one entry per record")

    def owner(rows: np.ndarray) -> str:
        position = np.searchsorted(np.cumsum(lengths), rows[0], side="right")
        return entity_ids[int(position)]

    bad = np.flatnonzero(
        ~(np.isfinite(timestamps) & np.isfinite(lats) & np.isfinite(lngs))
    )
    if bad.size:
        raise ValueError(
            f"non-finite timestamp or coordinate for entity {owner(bad)!r}"
        )
    indices = np.floor(
        (timestamps - windowing.origin) / windowing.width_seconds
    ).astype(np.int64)
    early = np.flatnonzero(indices < 0)
    if early.size:
        raise ValueError(
            f"records before windowing origin for entity {owner(early)!r}; "
            "use common_windowing over all datasets in the run"
        )
    if radii is not None:
        bad = np.flatnonzero(~(np.isfinite(radii) & (radii >= 0.0)))
        if bad.size:
            raise ValueError(
                f"non-finite or negative radius for entity {owner(bad)!r}"
            )

    ids = list(dict.fromkeys(entity_ids))
    position = {entity_id: k for k, entity_id in enumerate(ids)}
    rows = np.repeat(
        np.asarray([position[entity_id] for entity_id in entity_ids], dtype=np.int64),
        lengths,
    )
    added = np.bincount(rows, minlength=len(ids)).tolist()
    cells = cell_ids_from_degrees(lats, lngs, storage_level)
    if radii is None:
        weights = np.ones(len(rows))
    else:
        rows, indices, cells, weights = _spread_regions(
            (rows, indices, cells), lats, lngs, radii, storage_level
        )
    grown = [
        k for k, entity_id in enumerate(ids) if added[k] and entity_id in histories
    ]
    stored = leaf_columns(histories[ids[k]] for k in grown)
    rows = np.concatenate([np.asarray(grown, dtype=np.int64)[stored[0]], rows])
    windows = np.concatenate([stored[1], indices])
    cells = np.concatenate([stored[2], cells])
    weights = np.concatenate([stored[3], weights])

    order = np.lexsort((cells, windows, rows))
    rows, windows, cells = rows[order], windows[order], cells[order]
    first = run_starts(rows, windows, cells)
    # bincount adds strictly in input order (reduceat sums long runs
    # pairwise), which is what keeps fractional region weights
    # batching-independent.
    counts = np.bincount(np.cumsum(first) - 1, weights=weights[order])
    rows, windows, cells = rows[first], windows[first], cells[first]
    bounds = np.searchsorted(rows, np.arange(len(ids) + 1)).tolist()
    for k, entity_id in enumerate(ids):
        columns = (
            windows[bounds[k] : bounds[k + 1]],
            cells[bounds[k] : bounds[k + 1]],
            counts[bounds[k] : bounds[k + 1]],
        )
        history = histories.get(entity_id)
        if history is None:
            histories[entity_id] = MobilityHistory(
                entity_id, windowing, storage_level, *columns, added[k]
            )
        elif added[k]:
            history._store(*columns)
            history.num_records += added[k]
            history.version += 1


def leaf_columns(
    histories: Iterable[MobilityHistory],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stored bins of ``histories`` joined into four parallel columns
    ``(row, window, cell, count)`` — ``row`` is the history's position in
    the iterable, cells are at each history's storage level, rows sorted
    by ``(row, window, cell)``.  What whole-dataset array passes read
    instead of walking histories; read-only like the columns they join."""
    histories = list(histories)
    sizes = [len(history._windows) for history in histories]
    joined = [np.repeat(np.arange(len(histories)), sizes)]
    for name, dtype in _COLUMNS.items():
        columns = [getattr(history, name) for history in histories]
        joined.append(np.concatenate([np.empty(0, dtype), *columns]))
    for column in joined:
        column.flags.writeable = False
    return tuple(joined)


#: A history's scalars, as the integer columns of :func:`_pack_histories`.
_SCALARS = ("num_records", "version", "storage_level")


def _pack_histories(histories: Mapping[str, MobilityHistory]) -> Dict[str, object]:
    """One side's histories as the flat arrays a durable snapshot holds
    (:func:`~repro.store.snapshot.pack_rows` over the stored columns and
    the scalars) plus the one :class:`~repro.temporal.Windowing` a linker
    side is binned under (``None`` for an empty side)."""
    windowing = next((history.windowing for history in histories.values()), None)
    return dict(pack_rows(histories, _COLUMNS, _SCALARS), windowing=windowing)


def _unpack_histories(packed: Mapping[str, object]) -> Dict[str, MobilityHistory]:
    """The histories :func:`_pack_histories` packed (each stores copies
    of its rows)."""
    histories: Dict[str, MobilityHistory] = {}
    windowing, rows = packed["windowing"], unpack_rows(packed, _COLUMNS, _SCALARS)
    for entity_id, columns, (records, version, level) in rows:
        history = MobilityHistory(entity_id, windowing, level, *columns, records)
        history.version = version
        histories[entity_id] = history
    return histories


def build_histories(
    dataset: LocationDataset,
    windowing: Windowing,
    storage_level: int,
    entities: Optional[Iterable[str]] = None,
) -> Dict[str, MobilityHistory]:
    """Build histories for every entity of a dataset (or the ``entities``
    named, in that order).

    This is the ``CreateHistories`` step of Alg. 1.  ``storage_level``
    should be at least as fine as both the similarity spatial level and any
    LSH signature level the run will use.  The dataset's columns are
    concatenated and binned in one :func:`ingest_columns` pass.
    """
    entity_ids = list(
        dict.fromkeys(entities if entities is not None else dataset.entities)
    )
    histories: Dict[str, MobilityHistory] = {}
    if entity_ids:
        columns = [dataset.columns(entity_id) for entity_id in entity_ids]
        timestamps, lats, lngs = (np.concatenate(column) for column in zip(*columns))
        ingest_columns(
            histories, entity_ids, [len(column[0]) for column in columns],
            timestamps, lats, lngs, windowing, storage_level,
        )
    return histories
