"""Dataset loaders and writers.

The paper evaluates on a San Francisco taxi trace and a Twitter/Foursquare
check-in corpus; neither is redistributable, so the benchmarks here run on
the synthetic worlds in :mod:`repro.data.synth`.  These loaders exist so the
library is directly usable on the public datasets named in the reproduction
notes (GeoLife's PLT directory layout, Gowalla/Brightkite check-in TSVs) and
on plain CSV exports — all without a pandas dependency.

Every loader takes ``on_error`` deciding what a malformed or out-of-range
row does.  ``"raise"`` (the default) stops the load at the first bad row —
silent data loss would corrupt linkage ground truth.  ``"skip"`` quarantines
bad rows instead and returns ``(dataset, QuarantineReport)``, so a
multi-gigabyte public trace with a handful of corrupt lines still loads and
the caller can audit exactly what was dropped and why.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .records import LocationDataset, Record

__all__ = [
    "QuarantinedRow",
    "QuarantineReport",
    "load_csv",
    "save_csv",
    "load_geolife",
    "load_gowalla",
]

PathLike = Union[str, Path]

_ON_ERROR_MODES = ("raise", "skip")


class QuarantinedRow(NamedTuple):
    """One input row a loader refused, and why."""

    source: str
    line: int
    reason: str
    raw: str


@dataclass
class QuarantineReport:
    """What a ``on_error="skip"`` load kept and what it dropped.

    Attributes
    ----------
    loaded:
        Records that made it into the returned dataset.
    rows:
        The quarantined rows, in input order, each carrying its source
        file, 1-based line number, a short machine-checkable reason and
        the raw line text for forensics.
    """

    loaded: int = 0
    rows: List[QuarantinedRow] = field(default_factory=list)

    @property
    def skipped(self) -> int:
        """Number of quarantined rows."""
        return len(self.rows)

    def reasons(self) -> Dict[str, int]:
        """Quarantined-row count per reason string."""
        counts: Dict[str, int] = {}
        for row in self.rows:
            counts[row.reason] = counts.get(row.reason, 0) + 1
        return counts

    def quarantine(self, source: str, line: int, reason: str, raw: str) -> None:
        self.rows.append(QuarantinedRow(source, line, reason, raw.rstrip("\n")))


def _check_on_error(on_error: str) -> None:
    if on_error not in _ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {_ON_ERROR_MODES}, got {on_error!r}"
        )


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


def _parse_timestamp(raw: str) -> float:
    """Parse a timestamp that is either POSIX seconds or ISO 8601.  A
    value that parses but is not finite (``nan``, ``inf``, ``1e400``) is
    as malformed as one that does not parse."""
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


def load_csv(
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
    dataset = LocationDataset.from_records(records, name or path.stem)
    if on_error == "skip":
        report.loaded = len(records)
        return dataset, report
    return dataset


def save_csv(dataset: LocationDataset, path: PathLike, delimiter: str = ",") -> None:
    """Write a dataset as ``entity,lat,lng,timestamp`` with a header row."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(["entity", "lat", "lng", "timestamp"])
        for record in dataset.records():
            writer.writerow(
                [
                    record.entity_id,
                    f"{record.lat:.7f}",
                    f"{record.lng:.7f}",
                    f"{record.timestamp:.3f}",
                ]
            )


def _iter_plt_records(
    entity_id: str,
    plt_path: Path,
    on_error: str,
    report: QuarantineReport,
) -> Iterator[Record]:
    """Parse one GeoLife ``.plt`` trajectory file.

    Format: 6 header lines, then ``lat,lng,0,altitude,days,date,time``
    rows.  Truncated rows (including the blank trailing line many files
    end with) are skipped as they always were; rows whose fields fail to
    parse or whose coordinates are out of range follow ``on_error``.
    """
    with plt_path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            if line_number <= 6:
                continue
            parts = line.strip().split(",")
            if len(parts) < 7:
                if line.strip() and on_error == "skip":
                    report.quarantine(
                        str(plt_path), line_number, "truncated row", line
                    )
                continue
            try:
                lat, lng = float(parts[0]), float(parts[1])
                timestamp = _parse_timestamp(f"{parts[5]}T{parts[6]}")
            except ValueError as error:
                if on_error == "raise":
                    raise ValueError(
                        f"{plt_path}:{line_number}: malformed row: {error}"
                    ) from error
                report.quarantine(
                    str(plt_path), line_number, f"malformed: {error}", line
                )
                continue
            problem = _coord_problem(lat, lng)
            if problem is not None:
                if on_error == "raise":
                    raise ValueError(f"{plt_path}:{line_number}: {problem}")
                report.quarantine(str(plt_path), line_number, problem, line)
                continue
            yield Record(entity_id, lat, lng, timestamp)


def load_geolife(
    root: PathLike,
    name: str = "geolife",
    max_users: Optional[int] = None,
    on_error: str = "raise",
) -> Union[LocationDataset, Tuple[LocationDataset, QuarantineReport]]:
    """Load the GeoLife GPS trajectory corpus.

    Expects the published layout ``<root>/Data/<user>/Trajectory/*.plt``;
    a layout without the ``Data`` level is also accepted.  With
    ``on_error="skip"``, malformed and out-of-range rows are quarantined
    and the return value is ``(dataset, QuarantineReport)``.
    """
    _check_on_error(on_error)
    root = Path(root)
    data_dir = root / "Data" if (root / "Data").is_dir() else root
    user_dirs = sorted(p for p in data_dir.iterdir() if p.is_dir())
    if max_users is not None:
        user_dirs = user_dirs[:max_users]
    report = QuarantineReport()
    records: List[Record] = []
    for user_dir in user_dirs:
        trajectory_dir = user_dir / "Trajectory"
        if not trajectory_dir.is_dir():
            continue
        for plt_path in sorted(trajectory_dir.glob("*.plt")):
            records.extend(
                _iter_plt_records(user_dir.name, plt_path, on_error, report)
            )
    if not records and not report.rows:
        raise ValueError(f"no GeoLife trajectories found under {root}")
    dataset = LocationDataset.from_records(records, name)
    if on_error == "skip":
        report.loaded = len(records)
        return dataset, report
    return dataset


def load_gowalla(
    path: PathLike,
    name: str = "gowalla",
    max_records: Optional[int] = None,
    on_error: str = "raise",
) -> Union[LocationDataset, Tuple[LocationDataset, QuarantineReport]]:
    """Load a Gowalla/Brightkite-style check-in TSV.

    Format: ``user <TAB> check-in time (ISO) <TAB> lat <TAB> lng <TAB>
    location id`` with no header, as published with the SNAP datasets.
    Truncated lines are skipped as they always were (quarantined under
    ``on_error="skip"``); rows that fail to parse or carry out-of-range
    coordinates follow ``on_error``.
    """
    _check_on_error(on_error)
    path = Path(path)
    report = QuarantineReport()
    records: List[Record] = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 4:
                if line.strip() and on_error == "skip":
                    report.quarantine(
                        str(path), line_number, "truncated row", line
                    )
                continue
            try:
                record = Record(
                    entity_id=parts[0],
                    lat=float(parts[2]),
                    lng=float(parts[3]),
                    timestamp=_parse_timestamp(parts[1]),
                )
            except ValueError as error:
                if on_error == "raise":
                    raise ValueError(
                        f"{path}:{line_number}: malformed row: {error}"
                    ) from error
                report.quarantine(
                    str(path), line_number, f"malformed: {error}", line
                )
                continue
            problem = _coord_problem(record.lat, record.lng)
            if problem is not None:
                if on_error == "raise":
                    raise ValueError(f"{path}:{line_number}: {problem}")
                report.quarantine(str(path), line_number, problem, line)
                continue
            records.append(record)
            if max_records is not None and len(records) >= max_records:
                break
    if not records and not report.rows:
        raise ValueError(f"no check-ins found in {path}")
    dataset = LocationDataset.from_records(records, name)
    if on_error == "skip":
        report.loaded = len(records)
        return dataset, report
    return dataset
