"""The per-entity ``LocationDataset`` as it stood before the column store:
the oracle of ``test_dataset_columns.py``.

``TraceDataset`` is the dataset model of ``repro.data.records`` at commit
f8a8f39 — one ``_Trace`` of three sorted float64 columns per entity, held
in a dict in entity order — with its constructors and transformations
moved here unchanged (``_from_runs`` folded into ``from_columns``), so
nothing it computes passes through the code it is compared against.
Selected by nothing under ``src/``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np


class _Trace:
    """Columnar storage for one entity's records, sorted by timestamp."""

    __slots__ = ("timestamps", "lats", "lngs")

    def __init__(self, timestamps, lats, lngs) -> None:
        self.timestamps = timestamps
        self.lats = lats
        self.lngs = lngs

    def __len__(self) -> int:
        return self.timestamps.shape[0]


def _sorted_trace(timestamps, lats, lngs) -> _Trace:
    order = np.argsort(timestamps, kind="stable")
    return _Trace(timestamps[order], lats[order], lngs[order])


def _validate_coords(lat: float, lng: float) -> None:
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude out of range: {lat}")
    if not (-180.0 <= lng <= 180.0):
        raise ValueError(f"longitude out of range: {lng}")


class TraceDataset:
    def __init__(self, name: str, traces: Dict[str, _Trace]) -> None:
        self.name = name
        self._traces = traces

    @classmethod
    def from_columns(
        cls, entities: Sequence[str], columns, name: str = "dataset"
    ) -> "TraceDataset":
        code_of = {entity: code for code, entity in enumerate(dict.fromkeys(entities))}
        codes = np.fromiter(map(code_of.__getitem__, entities), np.intp, len(entities))
        names = list(code_of)
        columns = np.asarray(columns, dtype=np.float64)
        if columns.shape != (3, len(codes)):
            raise ValueError("column lengths differ")
        timestamps, lats, lngs = columns
        bad = ~(
            np.isfinite(timestamps) & (np.abs(lats) <= 90.0) & (np.abs(lngs) <= 180.0)
        )
        if bad.any():
            row = int(bad.argmax())
            _validate_coords(float(lats[row]), float(lngs[row]))
            raise ValueError(f"timestamp not finite for entity {names[codes[row]]!r}")
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
    ) -> "TraceDataset":
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
                _validate_coords(float(lats.min()), float(lngs.min()))
                _validate_coords(float(lats.max()), float(lngs.max()))
            traces[entity_id] = _sorted_trace(timestamps, lats, lngs)
        return cls(name, traces)

    @property
    def entities(self) -> List[str]:
        return list(self._traces)

    @property
    def num_records(self) -> int:
        return sum(len(trace) for trace in self._traces.values())

    def record_count(self, entity_id: str) -> int:
        return len(self._traces[entity_id])

    def columns(self, entity_id: str):
        trace = self._traces[entity_id]
        return trace.timestamps, trace.lats, trace.lngs

    def time_range(self) -> Tuple[float, float]:
        traces = [trace for trace in self._traces.values() if len(trace)]
        if not traces:
            raise ValueError(f"dataset {self.name!r} is empty")
        starts = [float(trace.timestamps[0]) for trace in traces]
        ends = [float(trace.timestamps[-1]) for trace in traces]
        return min(starts), max(ends)

    def subset(self, entity_ids: Iterable[str], name: Optional[str] = None) -> "TraceDataset":
        traces = {}
        for entity_id in entity_ids:
            if entity_id not in self._traces:
                raise KeyError(f"unknown entity: {entity_id!r}")
            traces[entity_id] = self._traces[entity_id]
        return TraceDataset(name or self.name, traces)

    def filter_min_records(self, min_records: int) -> "TraceDataset":
        traces = {
            entity_id: trace
            for entity_id, trace in self._traces.items()
            if len(trace) > min_records
        }
        return TraceDataset(self.name, traces)

    def sample_records(self, inclusion_probability: float, rng) -> "TraceDataset":
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
        return TraceDataset(self.name, traces)

    def jitter_timestamps(self, sigma_seconds: float, rng) -> "TraceDataset":
        if sigma_seconds < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma_seconds}")
        if sigma_seconds == 0:
            return self
        traces = {}
        for entity_id, trace in self._traces.items():
            noisy = trace.timestamps + rng.normal(0.0, sigma_seconds, len(trace))
            traces[entity_id] = _sorted_trace(noisy, trace.lats, trace.lngs)
        return TraceDataset(self.name, traces)

    def rename_entities(
        self, mapping: Mapping[str, str], name: Optional[str] = None
    ) -> "TraceDataset":
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("entity id mapping is not injective")
        traces = {}
        for entity_id, trace in self._traces.items():
            traces[mapping[entity_id]] = trace
        return TraceDataset(name or self.name, traces)

    def renamed(self, name: str) -> "TraceDataset":
        return TraceDataset(name, dict(self._traces))
