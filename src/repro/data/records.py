"""Location datasets: the record model of Sec. 2.1.

A *record* is the triple ``{u, l, t}`` — entity id, point location,
timestamp.  A *location dataset* is a collection of usage records from one
location-based service.  Entities carry opaque ids that are unique within a
dataset but (after anonymisation) carry no cross-dataset meaning, which is
exactly why spatio-temporal linkage is needed.

Internally a :class:`LocationDataset` is three float64 columns (timestamps,
latitudes, longitudes) sorted by ``(entity, timestamp)``, the row bounds of
each entity and one id -> code dict.  Every constructor and transformation
is a column operation, and history construction bins a whole dataset's
columns as they stand (:func:`repro.core.history.build_histories`); an
entity's own columns are read-only slices of the three.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["Record", "LocationDataset", "DatasetStats"]


class Record(NamedTuple):
    """A single usage record ``{u, l, t}``.

    Attributes
    ----------
    entity_id:
        Dataset-local id of the entity that produced the record.
    lat, lng:
        Location of the record in degrees (record locations are points,
        Sec. 2.1).
    timestamp:
        POSIX seconds.
    """

    entity_id: str
    lat: float
    lng: float
    timestamp: float


@dataclass(frozen=True, slots=True)
class DatasetStats:
    """Summary statistics mirroring the dataset descriptions of Sec. 5.1."""

    name: str
    num_entities: int
    num_records: int
    avg_records_per_entity: float
    time_start: float
    time_end: float

    @property
    def span_days(self) -> float:
        """Duration covered by the dataset, in days."""
        return (self.time_end - self.time_start) / 86_400.0


def _invalid(timestamps: np.ndarray, lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
    """Mask of the rows whose timestamp is not finite or whose coordinate
    is out of range (NaN fails every comparison)."""
    return ~(np.isfinite(timestamps) & (np.abs(lats) <= 90.0) & (np.abs(lngs) <= 180.0))


class LocationDataset:
    """An immutable collection of records grouped by entity.

    Construction goes through :meth:`from_records`, :meth:`from_columns`
    or :meth:`from_arrays`; all transformation methods (subsetting, record
    sampling, id remapping) return new datasets.
    """

    def __init__(
        self, name: str, entities: Iterable[str], bounds: np.ndarray, columns: np.ndarray
    ) -> None:
        self._name = name
        self._code_of = {entity: code for code, entity in enumerate(entities)}
        #: Entity ``code`` owns rows ``bounds[code]:bounds[code + 1]``.
        self._bounds = bounds
        #: ``(timestamps, lats, lngs)`` rows, sorted by (code, timestamp).
        self._columns = columns
        columns.flags.writeable = False

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Iterable[Record], name: str = "dataset"
    ) -> "LocationDataset":
        """Build a dataset from an iterable of :class:`Record`."""
        entities, lats, lngs, timestamps = tuple(zip(*records)) or ((),) * 4
        return cls.from_columns(entities, (timestamps, lats, lngs), name)

    @classmethod
    def from_columns(
        cls, entities: Sequence[str], columns: ArrayLike, name: str = "dataset"
    ) -> "LocationDataset":
        """Build from parallel columns with one row per record:
        ``entities`` and, as :meth:`columns` returns them, ``(timestamps,
        lats, lngs)``.

        Rows may come in any order: entities are ordered by first
        appearance, and one stable sort by ``(entity, timestamp)`` leaves
        each entity's columns as slices of the three sorted arrays, rows
        of equal timestamp in the order given.
        """
        code_of = {entity: code for code, entity in enumerate(dict.fromkeys(entities))}
        codes = np.fromiter(map(code_of.__getitem__, entities), np.intp, len(entities))
        columns = np.array(columns, dtype=np.float64)
        return cls._from_codes(list(code_of), codes, columns, name)

    @classmethod
    def _from_codes(
        cls, names: List[str], codes: np.ndarray, columns: np.ndarray, name: str
    ) -> "LocationDataset":
        """:meth:`from_columns` of rows already coded: row ``i`` belongs to
        entity ``names[codes[i]]``, names in order of first appearance;
        ``columns`` is a float64 ``(3, rows)`` array the dataset may keep."""
        if columns.shape != (3, len(codes)):
            raise ValueError("column lengths differ")
        bad = _invalid(*columns)
        if bad.any():
            _, lat, lng = columns[:, bad.argmax()].tolist()
            cls._validate_coords(lat, lng)
            code = codes[bad.argmax()]
            raise ValueError(f"timestamp not finite for entity {names[code]!r}")
        return cls._sorted(names, codes, columns, name)

    @classmethod
    def _sorted(
        cls, names: List[str], codes: np.ndarray, columns: np.ndarray, name: str
    ) -> "LocationDataset":
        """The dataset of valid coded rows, sorted stably by ``(code,
        timestamp)``.  Rows already in that order — as ``save_csv`` writes
        them — skip the sort; the stable sort would leave them in place."""
        timestamps = columns[0]
        step = np.diff(codes)
        if not ((step > 0) | ((step == 0) & (np.diff(timestamps) >= 0))).all():
            order = np.lexsort((timestamps, codes))
            codes, columns = codes[order], columns[:, order]
        bounds = np.searchsorted(codes, np.arange(len(names) + 1))
        return cls(name, names, bounds, columns)

    @classmethod
    def from_arrays(
        cls,
        entity_ids: Sequence[str],
        per_entity: Mapping[str, Tuple[np.ndarray, np.ndarray, np.ndarray]],
        name: str = "dataset",
    ) -> "LocationDataset":
        """Build from ``{entity: (timestamps, lats, lngs)}`` arrays.

        ``entity_ids`` fixes the entity ordering (useful for reproducible
        sampling); every id must be a key of ``per_entity``.  A bad
        record raises naming the first entity, in that order, that has
        one.
        """
        names = list(dict.fromkeys(entity_ids))
        traces = []
        for entity_id in names:
            trace = [np.asarray(column, dtype=np.float64) for column in per_entity[entity_id]]
            if not trace[0].shape == trace[1].shape == trace[2].shape:
                for earlier, columns in zip(names, traces):
                    cls._check_entity(earlier, *columns)
                raise ValueError(f"column shapes differ for entity {entity_id!r}")
            traces.append(trace)
        sizes = [len(trace[0]) for trace in traces]
        columns = np.zeros((3, sum(sizes)))
        for row, parts in zip(columns, zip(*traces)):
            np.concatenate(parts, out=row)
        codes = np.repeat(np.arange(len(names)), sizes)
        bad = _invalid(*columns)
        if bad.any():
            code = codes[bad.argmax()]
            cls._check_entity(names[code], *traces[code])
        return cls._sorted(names, codes, columns, name)

    @classmethod
    def _check_entity(
        cls, entity_id: str, timestamps: np.ndarray, lats: np.ndarray, lngs: np.ndarray
    ) -> None:
        """Raise for a non-finite timestamp, then for the range of the
        coordinates' minima and maxima, of one entity's records."""
        if not np.isfinite(timestamps).all():
            raise ValueError(f"timestamp not finite for entity {entity_id!r}")
        if lats.size:
            cls._validate_coords(float(lats.min()), float(lngs.min()))
            cls._validate_coords(float(lats.max()), float(lngs.max()))

    @staticmethod
    def _validate_coords(lat: float, lng: float) -> None:
        if not (-90.0 <= lat <= 90.0):
            raise ValueError(f"latitude out of range: {lat}")
        if not (-180.0 <= lng <= 180.0):
            raise ValueError(f"longitude out of range: {lng}")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable dataset name (used in reports)."""
        return self._name

    @property
    def entities(self) -> List[str]:
        """Entity ids, in insertion order."""
        return list(self._code_of)

    @property
    def num_entities(self) -> int:
        """Number of entities (``|U|`` in the paper)."""
        return len(self._code_of)

    @property
    def num_records(self) -> int:
        """Total record count."""
        return self._columns.shape[1]

    def __len__(self) -> int:
        return self.num_records

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._code_of

    def record_count(self, entity_id: str) -> int:
        """Number of records of one entity."""
        start, stop = self._span(entity_id)
        return stop - start

    def _span(self, entity_id: str) -> Tuple[int, int]:
        """The rows ``(start, stop)`` of one entity."""
        code = self._code_of[entity_id]
        start, stop = self._bounds[code : code + 2].tolist()
        return start, stop

    def columns(self, entity_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(timestamps, lats, lngs)`` arrays for ``entity_id`` (sorted by
        time): read-only slices of the dataset's columns."""
        start, stop = self._span(entity_id)
        timestamps, lats, lngs = self._columns[:, start:stop]
        return timestamps, lats, lngs

    def records_of(self, entity_id: str) -> Iterator[Record]:
        """Iterate one entity's records in time order."""
        timestamps, lats, lngs = (column.tolist() for column in self.columns(entity_id))
        for lat, lng, timestamp in zip(lats, lngs, timestamps):
            yield Record(entity_id, lat, lng, timestamp)

    def records(self) -> Iterator[Record]:
        """Iterate all records, grouped by entity."""
        for entity_id in self._code_of:
            yield from self.records_of(entity_id)

    def time_range(self) -> Tuple[float, float]:
        """``(earliest, latest)`` record timestamp across the dataset."""
        if not self.num_records:
            raise ValueError(f"dataset {self._name!r} is empty")
        # Each entity's first and last record; the first extreme of each
        # in entity order, as a signed zero's sign depends on which.
        held = self._bounds[:-1] < self._bounds[1:]
        firsts = self._columns[0, self._bounds[:-1][held]]
        lasts = self._columns[0, self._bounds[1:][held] - 1]
        return float(firsts[firsts.argmin()]), float(lasts[lasts.argmax()])

    def stats(self) -> DatasetStats:
        """Summary statistics (entities, records, averages, span)."""
        start, end = self.time_range()
        entities = self.num_entities
        records = self.num_records
        return DatasetStats(
            name=self._name,
            num_entities=entities,
            num_records=records,
            avg_records_per_entity=records / entities if entities else 0.0,
            time_start=start,
            time_end=end,
        )

    # ------------------------------------------------------------------
    # transformations (all return new datasets)
    # ------------------------------------------------------------------
    def _pick(self, names: List[str], codes: np.ndarray, name: str) -> "LocationDataset":
        """The dataset of the entities ``codes`` (named ``names``), in
        that order: one gather of their rows."""
        starts = self._bounds[codes]
        sizes = self._bounds[codes + 1] - starts
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        rows = np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], sizes)
        return LocationDataset(name, names, bounds, self._columns[:, rows])

    def subset(self, entity_ids: Iterable[str], name: Optional[str] = None) -> "LocationDataset":
        """Dataset restricted to the given entities (order preserved)."""
        names = list(dict.fromkeys(entity_ids))
        codes = np.fromiter(map(self._code_of.get, names, repeat(-1)), np.intp, len(names))
        if (codes < 0).any():
            raise KeyError(f"unknown entity: {names[int((codes < 0).argmax())]!r}")
        return self._pick(names, codes, name or self._name)

    def filter_min_records(self, min_records: int) -> "LocationDataset":
        """Drop entities with ``min_records`` or fewer records.

        The paper ignores entities with <= 5 records after downsampling
        (Sec. 5.1); this is that filter.
        """
        codes = np.flatnonzero(np.diff(self._bounds) > min_records)
        names = self.entities
        return self._pick([names[code] for code in codes.tolist()], codes, self._name)

    def sample_records(
        self, inclusion_probability: float, rng: np.random.Generator
    ) -> "LocationDataset":
        """Keep each record independently with ``inclusion_probability``;
        an entity left with no record goes.

        This implements the paper's *record inclusion probability* knob
        (Sec. 5.1), which models asynchronous service usage.  One draw per
        record, in row order.
        """
        if not 0.0 < inclusion_probability <= 1.0:
            raise ValueError(
                f"inclusion probability must be in (0, 1], got {inclusion_probability}"
            )
        keep = rng.random(self.num_records) < inclusion_probability
        codes = np.repeat(np.arange(self.num_entities), np.diff(self._bounds))[keep]
        kept = np.bincount(codes, minlength=self.num_entities)
        held = kept > 0
        names = list(compress(self._code_of, held.tolist()))
        bounds = np.concatenate([[0], np.cumsum(kept[held])])
        return LocationDataset(self._name, names, bounds, self._columns[:, keep])

    def jitter_timestamps(
        self, sigma_seconds: float, rng: np.random.Generator
    ) -> "LocationDataset":
        """Add Gaussian noise to every timestamp (records stay sorted).

        Models asynchronous logging across services: two observations of
        the same underlying event rarely carry identical timestamps.  The
        SM-style experiments use this so that very narrow temporal windows
        genuinely lose co-occurrence evidence (Sec. 5.2.1's "very small
        temporal windows require services to be used synchronously").
        One draw per record, in row order.
        """
        if sigma_seconds < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma_seconds}")
        if sigma_seconds == 0:
            return self
        columns = self._columns.copy()
        columns[0] += rng.normal(0.0, sigma_seconds, self.num_records)
        codes = np.repeat(np.arange(self.num_entities), np.diff(self._bounds))
        return LocationDataset._sorted(self.entities, codes, columns, self._name)

    def rename_entities(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "LocationDataset":
        """Remap entity ids (anonymisation).  ``mapping`` must be injective
        and cover every entity."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("entity id mapping is not injective")
        names = [mapping[entity_id] for entity_id in self._code_of]
        return LocationDataset(name or self._name, names, self._bounds, self._columns)

    def renamed(self, name: str) -> "LocationDataset":
        """Same data under a new dataset name."""
        return LocationDataset(name, self._code_of, self._bounds, self._columns)

    def __repr__(self) -> str:
        return (
            f"LocationDataset({self._name!r}, entities={self.num_entities}, "
            f"records={self.num_records})"
        )
