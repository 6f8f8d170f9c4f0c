"""Location datasets: the record model of Sec. 2.1.

A *record* is the triple ``{u, l, t}`` — entity id, point location,
timestamp.  A *location dataset* is a collection of usage records from one
location-based service.  Entities carry opaque ids that are unique within a
dataset but (after anonymisation) carry no cross-dataset meaning, which is
exactly why spatio-temporal linkage is needed.

Internally a :class:`LocationDataset` stores one sorted numpy column set per
entity (timestamps, latitudes, longitudes); that keeps the 10^5-record
synthetic workloads compact and lets history construction and the synthetic
samplers operate vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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


class _Trace:
    """Columnar storage for one entity's records, sorted by timestamp."""

    __slots__ = ("timestamps", "lats", "lngs")

    def __init__(
        self, timestamps: np.ndarray, lats: np.ndarray, lngs: np.ndarray
    ) -> None:
        self.timestamps = timestamps
        self.lats = lats
        self.lngs = lngs

    def __len__(self) -> int:
        return self.timestamps.shape[0]


def _sorted_trace(timestamps: np.ndarray, lats: np.ndarray, lngs: np.ndarray) -> _Trace:
    """The trace of float64 columns in any order; equal timestamps keep theirs."""
    order = np.argsort(timestamps, kind="stable")
    return _Trace(timestamps[order], lats[order], lngs[order])


class LocationDataset:
    """An immutable collection of records grouped by entity.

    Construction goes through :meth:`from_records` or
    :meth:`from_arrays`; all transformation methods (subsetting, record
    sampling, id remapping) return new datasets.
    """

    def __init__(self, name: str, traces: Dict[str, _Trace]) -> None:
        self._name = name
        self._traces = traces

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
        return cls._from_runs(entities, np.ones(len(entities), np.intp), columns, name)

    @classmethod
    def _from_runs(
        cls, entities: Sequence[str], runs: ArrayLike, columns: ArrayLike, name: str
    ) -> "LocationDataset":
        """:meth:`from_columns` of rows whose entities come in runs:
        ``runs[i]`` rows in a row of entity ``entities[i]``."""
        code_of = {entity: code for code, entity in enumerate(dict.fromkeys(entities))}
        firsts = np.fromiter(map(code_of.__getitem__, entities), np.intp, len(entities))
        codes, names = np.repeat(firsts, runs), list(code_of)
        columns = np.asarray(columns, dtype=np.float64)
        if columns.shape != (3, len(codes)):
            raise ValueError("column lengths differ")
        timestamps, lats, lngs = columns
        bad = ~(
            np.isfinite(timestamps) & (np.abs(lats) <= 90.0) & (np.abs(lngs) <= 180.0)
        )
        if bad.any():
            row = int(bad.argmax())
            cls._validate_coords(float(lats[row]), float(lngs[row]))
            raise ValueError(f"timestamp not finite for entity {names[codes[row]]!r}")
        # Rows already in (entity, timestamp) order — as ``save_csv`` writes
        # them — skip the sort; the stable sort would leave them in place.
        step = np.diff(codes)
        ordered = ((step > 0) | ((step == 0) & (np.diff(timestamps) >= 0))).all()
        order = np.arange(len(codes)) if ordered else np.lexsort((timestamps, codes))
        timestamps, lats, lngs = columns[:, order]
        bounds = np.searchsorted(codes[order], np.arange(len(names) + 1)).tolist()
        traces = {
            entity: _Trace(timestamps[start:stop], lats[start:stop], lngs[start:stop])
            for entity, start, stop in zip(names, bounds, bounds[1:])
        }
        return cls(name, traces)

    @classmethod
    def from_arrays(
        cls,
        entity_ids: Sequence[str],
        per_entity: Mapping[str, Tuple[np.ndarray, np.ndarray, np.ndarray]],
        name: str = "dataset",
    ) -> "LocationDataset":
        """Build from ``{entity: (timestamps, lats, lngs)}`` arrays.

        ``entity_ids`` fixes the entity ordering (useful for reproducible
        sampling); every id must be a key of ``per_entity``.
        """
        traces = {}
        for entity_id in entity_ids:
            timestamps, lats, lngs = per_entity[entity_id]
            timestamps = np.asarray(timestamps, dtype=np.float64)
            lats = np.asarray(lats, dtype=np.float64)
            lngs = np.asarray(lngs, dtype=np.float64)
            if not (timestamps.shape == lats.shape == lngs.shape):
                raise ValueError(f"column shapes differ for entity {entity_id!r}")
            if not np.isfinite(timestamps).all():
                raise ValueError(f"timestamp not finite for entity {entity_id!r}")
            if lats.size:
                cls._validate_coords(float(lats.min()), float(lngs.min()))
                cls._validate_coords(float(lats.max()), float(lngs.max()))
            traces[entity_id] = _sorted_trace(timestamps, lats, lngs)
        return cls(name, traces)

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
        return list(self._traces)

    @property
    def num_entities(self) -> int:
        """Number of entities (``|U|`` in the paper)."""
        return len(self._traces)

    @property
    def num_records(self) -> int:
        """Total record count."""
        return sum(len(trace) for trace in self._traces.values())

    def __len__(self) -> int:
        return self.num_records

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._traces

    def record_count(self, entity_id: str) -> int:
        """Number of records of one entity."""
        return len(self._traces[entity_id])

    def columns(self, entity_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(timestamps, lats, lngs)`` arrays for ``entity_id`` (sorted by
        time).  The arrays are the internal buffers — do not mutate."""
        trace = self._traces[entity_id]
        return trace.timestamps, trace.lats, trace.lngs

    def records_of(self, entity_id: str) -> Iterator[Record]:
        """Iterate one entity's records in time order."""
        trace = self._traces[entity_id]
        for k in range(len(trace)):
            yield Record(
                entity_id,
                float(trace.lats[k]),
                float(trace.lngs[k]),
                float(trace.timestamps[k]),
            )

    def records(self) -> Iterator[Record]:
        """Iterate all records, grouped by entity."""
        for entity_id in self._traces:
            yield from self.records_of(entity_id)

    def time_range(self) -> Tuple[float, float]:
        """``(earliest, latest)`` record timestamp across the dataset."""
        traces = [trace for trace in self._traces.values() if len(trace)]
        if not traces:
            raise ValueError(f"dataset {self._name!r} is empty")
        starts = [float(trace.timestamps[0]) for trace in traces]
        ends = [float(trace.timestamps[-1]) for trace in traces]
        return min(starts), max(ends)

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
    def subset(self, entity_ids: Iterable[str], name: Optional[str] = None) -> "LocationDataset":
        """Dataset restricted to the given entities (order preserved)."""
        traces = {}
        for entity_id in entity_ids:
            if entity_id not in self._traces:
                raise KeyError(f"unknown entity: {entity_id!r}")
            traces[entity_id] = self._traces[entity_id]
        return LocationDataset(name or self._name, traces)

    def filter_min_records(self, min_records: int) -> "LocationDataset":
        """Drop entities with ``min_records`` or fewer records.

        The paper ignores entities with <= 5 records after downsampling
        (Sec. 5.1); this is that filter.
        """
        traces = {
            entity_id: trace
            for entity_id, trace in self._traces.items()
            if len(trace) > min_records
        }
        return LocationDataset(self._name, traces)

    def sample_records(
        self, inclusion_probability: float, rng: np.random.Generator
    ) -> "LocationDataset":
        """Keep each record independently with ``inclusion_probability``.

        This implements the paper's *record inclusion probability* knob
        (Sec. 5.1), which models asynchronous service usage.
        """
        if not 0.0 < inclusion_probability <= 1.0:
            raise ValueError(
                f"inclusion probability must be in (0, 1], got {inclusion_probability}"
            )
        traces = {}
        for entity_id, trace in self._traces.items():
            keep = rng.random(len(trace)) < inclusion_probability
            if keep.any():
                traces[entity_id] = _Trace(
                    trace.timestamps[keep], trace.lats[keep], trace.lngs[keep]
                )
        return LocationDataset(self._name, traces)

    def jitter_timestamps(
        self, sigma_seconds: float, rng: np.random.Generator
    ) -> "LocationDataset":
        """Add Gaussian noise to every timestamp (records stay sorted).

        Models asynchronous logging across services: two observations of
        the same underlying event rarely carry identical timestamps.  The
        SM-style experiments use this so that very narrow temporal windows
        genuinely lose co-occurrence evidence (Sec. 5.2.1's "very small
        temporal windows require services to be used synchronously").
        """
        if sigma_seconds < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma_seconds}")
        if sigma_seconds == 0:
            return self
        traces = {}
        for entity_id, trace in self._traces.items():
            noisy = trace.timestamps + rng.normal(0.0, sigma_seconds, len(trace))
            traces[entity_id] = _sorted_trace(noisy, trace.lats, trace.lngs)
        return LocationDataset(self._name, traces)

    def rename_entities(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "LocationDataset":
        """Remap entity ids (anonymisation).  ``mapping`` must be injective
        and cover every entity."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("entity id mapping is not injective")
        traces = {}
        for entity_id, trace in self._traces.items():
            traces[mapping[entity_id]] = trace
        return LocationDataset(name or self._name, traces)

    def renamed(self, name: str) -> "LocationDataset":
        """Same data under a new dataset name."""
        return LocationDataset(name, dict(self._traces))

    def __repr__(self) -> str:
        return (
            f"LocationDataset({self._name!r}, entities={self.num_entities}, "
            f"records={self.num_records})"
        )
