"""Mobility histories (Sec. 2.3, Fig. 1).

A mobility history aggregates one entity's records into *time-location
bins*: per leaf window, the grid cells visited (with counts).  The paper
organises those leaves under a temporal tree whose internal nodes
aggregate the counts, so that range queries — notably the dominating-cell
queries of the LSH layer — are logarithmic (:meth:`MobilityHistory.tree`,
:class:`~repro.temporal.TemporalCountTree`).  A linkage run does not build
that tree: the signature queries of one run partition the window axis, so
:func:`repro.lsh.signature.signature_matrix` answers all of them for a
whole dataset in one array pass over the leaves
(:func:`leaf_columns`).  The tree stays as the reference structure of
Fig. 1 and the oracle the array pass is tested against.

The temporal hierarchy is deliberate: the paper partitions hierarchically in
*time*, not space, because alibi detection needs fast retrieval of all cells
an entity touched in a given window (Sec. 2.3).

Histories are stored at a fine ``storage_level`` and re-binned on demand to
any coarser level via integer parent mapping, so one history build serves
both the similarity computation (e.g. level 12) and LSH signatures at an
independently chosen level (Sec. 5.3 varies them separately).

Ingest is one array pass too: :func:`ingest_columns` converts the
concatenated records of any number of entities to cells and window
indices with a single numpy dispatch chain and only then splits them per
entity; :func:`build_histories`, :meth:`MobilityHistory.from_columns`,
:meth:`MobilityHistory.extend` and
:meth:`~repro.core.streaming.StreamingLinker.observe` are spellings of it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.records import LocationDataset
from ..geo import LatLng, cell_ids_from_degrees
from ..geo.cell import CellId, parent_id
from ..temporal import TemporalCountTree, Windowing

__all__ = ["MobilityHistory", "build_histories"]

#: A version no history ever has (they count up from 0).  Whoever
#: remembers the version it last read an entity at writes this over it to
#: make the next comparison say "changed" — needed when an id's history is
#: dropped and re-created, because the newcomer restarts at 0.
STALE_VERSION = -1


def _accumulate(
    leaves: Dict[int, Counter],
    indices: List[int],
    cells: List[int],
    region: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    storage_level: int,
) -> None:
    """Distribute records over (window, cell) leaf counters.

    Point records add weight 1 to their cell; region records (``region``:
    the same rows' ``(lats, lngs, radii)``) spread weight ``1/n`` over the
    ``n`` cells of their cap cover — the Sec. 2.1 region extension.
    """
    if region is not None:
        lats, lngs, radii = region
    for row, (index, cell) in enumerate(zip(indices, cells)):
        counter = leaves.get(index)
        if counter is None:
            counter = Counter()
            leaves[index] = counter
        if region is None:
            counter[cell] += 1
            continue
        radius = float(radii[row])
        if radius <= CellId(cell).circumradius_meters() * 0.5:
            counter[cell] += 1
            continue
        from ..geo.coverage import cover_cap  # deferred: optional path

        cover = cover_cap(
            LatLng.from_degrees(float(lats[row]), float(lngs[row])),
            radius,
            storage_level,
        )
        weight = 1.0 / len(cover)
        for covered in cover:
            counter[covered.id] += weight


class MobilityHistory:
    """One entity's hierarchical spatio-temporal summary.

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
        "_leaves",
        "_tree",
        "_bins_cache",
        "_level_trees",
    )

    def __init__(
        self,
        entity_id: str,
        windowing: Windowing,
        storage_level: int,
        leaves: Dict[int, Counter],
        num_records: int,
    ) -> None:
        self.entity_id = entity_id
        self.windowing = windowing
        self.storage_level = storage_level
        self.num_records = num_records
        #: Monotone change counter: bumped by every :meth:`extend` call.
        #: Downstream caches (:class:`~repro.core.corpus.HistoryCorpus`
        #: snapshots, :class:`~repro.core.score_cache.ScoreCache` entries,
        #: LSH signature placements) key their validity on it.
        self.version = 0
        self._leaves = leaves
        self._tree: Optional[TemporalCountTree] = None
        self._level_trees: Dict[int, TemporalCountTree] = {}
        self._bins_cache: Dict[int, Dict[int, Tuple[int, ...]]] = {}

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

        Invalidates all cached bins and trees; the next query rebuilds them.
        Used by :class:`~repro.core.streaming.StreamingLinker` for the
        dynamic-datasets case the paper's introduction motivates.
        """
        ingest_columns(
            {self.entity_id: self}, [self.entity_id], [len(timestamps)],
            timestamps, lats, lngs, self.windowing, self.storage_level, radii,
        )

    # ------------------------------------------------------------------
    # bins
    # ------------------------------------------------------------------
    def windows(self) -> List[int]:
        """Populated leaf-window indices, ascending."""
        return sorted(self._leaves)

    def latest_window(self) -> int:
        """The most recent populated leaf-window index (-1 when the
        history holds no records) — the activity recency the retention
        policies of :mod:`repro.core.retention` rank entities by."""
        return max(self._leaves, default=-1)

    def bins(self, level: int) -> Dict[int, Tuple[int, ...]]:
        """``{window: (distinct cells at level, sorted)}`` (cached).

        This is ``H_u``, the set of time-location bins of Sec. 3.1.2,
        re-binned at the requested spatial level.
        """
        cached = self._bins_cache.get(level)
        if cached is not None:
            return cached
        if level > self.storage_level:
            raise ValueError(
                f"level {level} is finer than storage level {self.storage_level}"
            )
        result: Dict[int, Tuple[int, ...]] = {}
        if level == self.storage_level:
            for window, counter in self._leaves.items():
                result[window] = tuple(sorted(counter))
        else:
            for window, counter in self._leaves.items():
                result[window] = tuple(
                    sorted({parent_id(cell, level) for cell in counter})
                )
        self._bins_cache[level] = result
        return result

    def num_bins(self, level: int) -> int:
        """``|H_u|``: the number of time-location bins at ``level``."""
        return sum(len(cells) for cells in self.bins(level).values())

    def records_in_window(self, window: int) -> int:
        """Number of raw records falling in one leaf window."""
        counter = self._leaves.get(window)
        return sum(counter.values()) if counter else 0

    def counts_in_window(self, window: int, level: int) -> Counter:
        """Cell-id counts within one leaf window at ``level``."""
        counter = self._leaves.get(window)
        if not counter:
            return Counter()
        if level == self.storage_level:
            return Counter(counter)
        rebinned: Counter = Counter()
        for cell, count in counter.items():
            rebinned[parent_id(cell, level)] += count
        return rebinned

    # ------------------------------------------------------------------
    # tree queries (the paper's formulation; the LSH oracle)
    # ------------------------------------------------------------------
    def tree(self, level: Optional[int] = None) -> TemporalCountTree:
        """The hierarchical count tree at ``level`` (default storage level).

        Trees are built lazily and cached per level.  Nothing on a
        linkage path asks for one (signatures come from
        :func:`repro.lsh.signature.signature_matrix`); this is the Fig. 1
        structure for user code and for the signature oracle
        :func:`repro.lsh.signature.build_signature`.
        """
        if level is None or level == self.storage_level:
            if self._tree is None:
                self._tree = TemporalCountTree(self._leaves)
            return self._tree
        cached = self._level_trees.get(level)
        if cached is None:
            rebinned = {
                window: self.counts_in_window(window, level)
                for window in self._leaves
            }
            cached = TemporalCountTree(rebinned)
            self._level_trees[level] = cached
        return cached

    def dominating_cell(
        self, start_window: int, end_window: int, level: Optional[int] = None
    ) -> Optional[int]:
        """The dominating grid cell over leaf windows ``[start, end)``.

        Returns the cell id holding the most records (ties to the smallest
        id), or ``None`` when the entity has no records there — the LSH
        signature placeholder case (Sec. 4).
        """
        result = self.tree(level).dominating(start_window, end_window)
        return None if result is None else int(result)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return (
            f"MobilityHistory({self.entity_id!r}, records={self.num_records}, "
            f"windows={len(self._leaves)}, storage_level={self.storage_level})"
        )


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
    known one grows in place (version bumped, cached bins and trees
    dropped).

    Cells and window indices are computed for all rows at once — one
    :func:`~repro.geo.cell_ids_from_degrees` call however many entities
    there are — and checked before anything is touched: a non-finite
    timestamp or coordinate, or a record before the windowing origin,
    raises naming the first entity that has one.
    ``radii`` as in :meth:`MobilityHistory.from_columns`.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if timestamps.size != sum(lengths):
        raise ValueError("lengths must add up to one entry per record")

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
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != indices.shape:
            raise ValueError("radii must have one entry per record")
    windows = indices.tolist()
    cells = cell_ids_from_degrees(lats, lngs, storage_level).tolist()
    lo = 0
    for entity_id, length in zip(entity_ids, lengths):
        hi = lo + length
        history = histories.get(entity_id)
        if history is None:
            history = MobilityHistory(entity_id, windowing, storage_level, {}, 0)
            histories[entity_id] = history
        else:
            history.version += 1
            history._tree = None
            history._level_trees.clear()
            history._bins_cache.clear()
        _accumulate(
            history._leaves,
            windows[lo:hi],
            cells[lo:hi],
            None if radii is None else (lats[lo:hi], lngs[lo:hi], radii[lo:hi]),
            storage_level,
        )
        history.num_records += length
        lo = hi


def leaf_columns(
    histories: Iterable[MobilityHistory],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The leaf counters of ``histories`` flattened to four parallel
    columns ``(row, window, cell, count)`` — ``row`` is the history's
    position in the iterable, cells are at each history's storage level.
    What whole-dataset array passes read instead of walking histories."""
    sizes: List[int] = []
    rows: List[int] = []
    windows: List[int] = []
    cells: List[int] = []
    counts: List[float] = []
    for row, history in enumerate(histories):
        for window, counter in history._leaves.items():
            rows.append(row)
            windows.append(window)
            sizes.append(len(counter))
            cells.extend(counter)
            counts.extend(counter.values())
    return (
        np.repeat(np.asarray(rows, dtype=np.int64), sizes),
        np.repeat(np.asarray(windows, dtype=np.int64), sizes),
        np.asarray(cells, dtype=np.uint64),
        np.asarray(counts, dtype=np.float64),
    )


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
