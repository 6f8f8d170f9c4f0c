"""The scalar ``load_csv`` as it stood before the columnar reader: the oracle.

``scalar_load_csv`` is the body of ``repro.data.io.load_csv`` at commit
e23a41d, moved here verbatim — a ``csv.DictReader`` dict, a joined ``raw``
string, a ``Record`` and three scalar parses per row — together with the
helpers it called and the grouping ``LocationDataset.from_records`` then
did (a tuple list per entity, one ``np.asarray`` + stable argsort each), so
nothing it computes passes through the code it is compared against.
Selected by nothing under ``src/``; ``test_columnar_reader.py`` holds the
columnar reader to it row for row.  One fix since, made in both readers:
a row lacking only its timestamp cell is a malformed row (see
``_parse_timestamp``).
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.data import LocationDataset, QuarantineReport, Record

PathLike = Union[str, Path]


def _check_on_error(on_error: str) -> None:
    if on_error not in ("raise", "skip"):
        raise ValueError(
            f"on_error must be one of ('raise', 'skip'), got {on_error!r}"
        )


def _from_records(records: List[Record], name: str) -> LocationDataset:
    grouped: Dict[str, List[Tuple[float, float, float]]] = {}
    for record in records:
        grouped.setdefault(record.entity_id, []).append(
            (record.timestamp, record.lat, record.lng)
        )
    columns = {}
    for entity_id, rows in grouped.items():
        array = np.asarray(rows, dtype=np.float64)
        order = np.argsort(array[:, 0], kind="stable")
        columns[entity_id] = tuple(
            np.ascontiguousarray(array[order, k]) for k in range(3)
        )
    return LocationDataset.from_arrays(list(columns), columns, name)


def _coord_problem(lat: float, lng: float) -> Optional[str]:
    """The out-of-range reason for a coordinate pair, or None when valid.

    Mirrors :meth:`LocationDataset._validate_coords` (which guards the
    ``on_error="raise"`` path inside ``from_records``); NaN fails both
    comparisons and is reported as out of range.
    """
    if not (-90.0 <= lat <= 90.0):
        return f"latitude out of range: {lat}"
    if not (-180.0 <= lng <= 180.0):
        return f"longitude out of range: {lng}"
    return None


def _parse_timestamp(raw: Optional[str]) -> float:
    """Parse a timestamp that is either POSIX seconds or ISO 8601.  A
    value that parses but is not finite (``nan``, ``inf``, ``1e400``) is
    as malformed as one that does not parse, and so is a row too short to
    have the cell (``None``: the one departure from the verbatim reader,
    which raised ``AttributeError`` there)."""
    if raw is None:
        raise ValueError("missing timestamp")
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise ValueError(f"timestamp not finite: {raw!r}")
        return value
    text = raw.replace("Z", "+00:00")
    parsed = _dt.datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=_dt.timezone.utc)
    return parsed.timestamp()


def scalar_load_csv(
    path: PathLike,
    name: Optional[str] = None,
    delimiter: str = ",",
    entity_column: str = "entity",
    lat_column: str = "lat",
    lng_column: str = "lng",
    time_column: str = "timestamp",
    on_error: str = "raise",
) -> Union[LocationDataset, Tuple[LocationDataset, QuarantineReport]]:
    """Load records from a delimited text file with a header row.

    The timestamp column may hold POSIX seconds or ISO 8601 strings.  With
    ``on_error="raise"`` (default), rows with unparsable or out-of-range
    coordinates raise immediately and only the dataset is returned.  With
    ``on_error="skip"``, bad rows are quarantined and the return value is
    ``(dataset, QuarantineReport)``.  A missing or incomplete header always
    raises — that is a structural problem, not a bad row.
    """
    _check_on_error(on_error)
    path = Path(path)
    report = QuarantineReport()
    records: List[Record] = []
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        required = {entity_column, lat_column, lng_column, time_column}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(
                f"{path}: header must contain {sorted(required)}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            raw = delimiter.join(
                "" if value is None else str(value) for value in row.values()
            )
            try:
                record = Record(
                    entity_id=row[entity_column],
                    lat=float(row[lat_column]),
                    lng=float(row[lng_column]),
                    timestamp=_parse_timestamp(row[time_column]),
                )
            except (TypeError, ValueError) as error:
                if on_error == "raise":
                    raise ValueError(
                        f"{path}:{reader.line_num}: malformed row: {error}"
                    ) from error
                report.quarantine(
                    str(path), reader.line_num, f"malformed: {error}", raw
                )
                continue
            problem = _coord_problem(record.lat, record.lng)
            if problem is not None:
                if on_error == "raise":
                    raise ValueError(f"{path}:{reader.line_num}: {problem}")
                report.quarantine(str(path), reader.line_num, problem, raw)
                continue
            records.append(record)
    dataset = _from_records(records, name or path.stem)
    if on_error == "skip":
        report.loaded = len(records)
        return dataset, report
    return dataset
