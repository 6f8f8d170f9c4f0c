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

import codecs
import csv
import datetime as _dt
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple
from typing import Optional, Sequence, Tuple, Union

import numpy as np

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

    Mirrors :meth:`LocationDataset._validate_coords` (which guards
    ``from_columns``); NaN fails both comparisons and is reported as out of
    range.
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
    have the cell (``None``)."""
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


# The ``(entity, time, lat, lng)`` cell texts of a row; ``None`` where a
# short row has no such cell.
Cells = Tuple[Optional[str], Optional[str], Optional[str], Optional[str]]

# One tokenised row: its file, its line, a token, and its four cells.  The
# format's ``Scalar`` turns the token back into the row's raw text and its
# cells — no cells when the row is too short to be cut into them.
Row = Tuple[str, int, Any, Optional[str], Optional[str], Optional[str], Optional[str]]
Scalar = Callable[[Any], Tuple[str, Optional[Cells]]]

# The seven columns of ``Row`` for at most ``size`` rows, ``[]`` once none
# are left: how a loader hands its rows to :func:`_load`.
Cut = Callable[[int], List[List[Any]]]

# The scalar parse of the time, lat and lng cells.
_PARSERS = (_parse_timestamp, float, float)

# Rows tokenised at a time.  A row's tokens weigh ~20x the three floats kept
# of it, so this bounds what a load holds beyond its columns.
_SLICE_ROWS = 1 << 12


def _explain(
    source: str,
    line: int,
    raw: str,
    cells: Optional[Cells],
    on_error: str,
    report: QuarantineReport,
) -> Optional[Record]:
    """The scalar row parser, run on the rows the column pass flagged.

    Says what is wrong with the row — raising under ``on_error="raise"``,
    quarantining under ``"skip"`` — or returns its record when nothing is.
    A row too short to cut was always skipped, and is reported only when
    quarantining.
    """
    if cells is None:
        if raw.strip() and on_error == "skip":
            report.quarantine(source, line, "truncated row", raw)
        return None
    entity, time, lat, lng = cells
    cause = None
    try:
        record = Record(entity, float(lat), float(lng), _parse_timestamp(time))
        reason = detail = _coord_problem(record.lat, record.lng)
    except (TypeError, ValueError) as error:
        cause, reason, detail = error, f"malformed: {error}", f"malformed row: {error}"
    if reason is None:
        return record
    if on_error == "raise":
        raise ValueError(f"{source}:{line}: {detail}") from cause
    report.quarantine(source, line, reason, raw)
    return None


def _float_column(
    cells: Sequence[Optional[str]], parse: Callable[[str], float]
) -> np.ndarray:
    """``parse(cell)`` of every cell as float64, NaN where it raises.

    ``np.array`` converts each ``str`` with ``float()`` itself (``1_0``,
    padding, ``1e400``, ``nan`` and full-width digits included) and reads
    ``None`` as NaN, so a column of plain numbers never reaches ``parse``.
    """
    try:
        return np.array(cells, dtype=np.float64)
    except ValueError:
        column = np.full(len(cells), np.nan)
    for index, cell in enumerate(cells):
        if cell is not None:
            try:
                column[index] = parse(cell)
            except ValueError:
                pass
    return column


def _decoded(data: bytes, starts: np.ndarray, ends: np.ndarray) -> List[str]:
    """The text of every byte range ``data[start:end]``."""
    return [data[a:b].decode() for a, b in zip(starts.tolist(), ends.tolist())]


def _decimals(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``float()`` of every cell ``data[start:end]`` that is a plain decimal
    ``-?d*(.d*)?`` of 1 to 15 digits, NaN for any other cell.

    Such a cell is its integer mantissa over ``10 ** k``, ``k`` the digits
    after its point.  Both are exact doubles, so the one division is
    correctly rounded and has ``float()``'s bits (Clinger's fast path).
    The cells of one width are taken batch-last, as ``(width, cells)``
    bytes, and those of one layout (where the point and the sign sit)
    have their digits dotted with powers of ten by Horner's rule: every
    partial sum is an integer below ``10 ** 15``, so exact.
    """
    u = np.frombuffer(data, np.uint8)
    values, widths = np.full(len(starts), np.nan), ends - starts
    for width in np.flatnonzero(np.bincount(np.minimum(widths, 18))[1:18]) + 1:
        at = np.flatnonzero(widths == width)
        cells = np.lib.stride_tricks.sliding_window_view(u, width)[starts[at]].T.copy()
        # The point's position + 1, 0 for none.  A second point puts the sum
        # past both: past the cell, or where a point anywhere else is no digit.
        place = np.arange(1, width + 1, dtype=np.uint8)[:, None]
        points = ((cells == ord(".")) * place).sum(axis=0, dtype=np.uint8)
        layouts = 2 * points.astype(np.intp) + (cells[0] == ord("-"))
        for layout in np.flatnonzero(np.bincount(layouts)).tolist():
            point, sign = divmod(layout, 2)
            digit = (np.arange(width) != point - 1) & (np.arange(width) >= sign)
            if point > width or not 1 <= digit.sum() <= 15:
                continue
            sub = np.flatnonzero(layouts == layout)
            group = cells if len(sub) == len(at) else cells.take(sub, axis=1)
            codes = group[digit] - np.uint8(ord("0"))
            mantissa = reduce(lambda total, row: total * 10.0 + row, codes, 0.0)
            value = mantissa / float(10 ** (width - point if point else 0))
            plain = codes.max(axis=0) < 10
            values[at[sub[plain]]] = -value[plain] if sign else value[plain]
    return values


def _entity_codes(
    data: bytes, starts: np.ndarray, ends: np.ndarray
) -> Tuple[List[str], np.ndarray]:
    """The entity cells ``data[start:end]`` as codes: the text of each
    distinct cell, decoded once, in order of first appearance, and each
    cell's position in that list.

    Runs of equal neighbouring cells are found first, so a sorted file
    compares one cell per run; equal bytes are equal texts, as the bytes
    are UTF-8."""
    u = np.frombuffer(data, np.uint8)
    widths = ends - starts
    same = np.zeros(len(starts), bool)  # the cell before holds the same bytes
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        rows = np.flatnonzero(widths == width)
        cells = np.lib.stride_tricks.sliding_window_view(u, width)[starts[rows]]
        same[rows[1:]] = (np.diff(rows) == 1) & (cells[1:] == cells[:-1]).all(axis=1)
    heads = np.flatnonzero(~same)
    # Each run head's group: the earliest head holding the same bytes.  A
    # width's cells, zero-padded to big-endian 8-byte words, sort as their
    # bytes do.
    group = np.empty(len(heads), np.intp)
    for width in np.flatnonzero(np.bincount(widths[heads])).tolist():
        at = np.flatnonzero(widths[heads] == width)
        words = np.zeros((len(at), 8 * max(1, -(-width // 8))), np.uint8)
        words[:, :width] = np.lib.stride_tricks.sliding_window_view(u, width)[
            starts[heads[at]]
        ]
        words = words.view(">u8")
        order = np.lexsort(words.T[::-1])
        new = np.ones(len(at), bool)
        new[1:] = (words[order[1:]] != words[order[:-1]]).any(axis=1)
        cuts = np.flatnonzero(new)
        earliest = np.minimum.reduceat(at[order], cuts)
        group[at[order]] = np.repeat(earliest, np.diff(cuts, append=len(at)))
    firsts, codes = np.unique(group, return_inverse=True)
    names = _decoded(data, starts[heads[firsts]], ends[heads[firsts]])
    return names, np.repeat(codes, np.diff(heads, append=len(same)))


def _screen(
    block: np.ndarray, row: Callable, on_error: str, report: QuarantineReport
) -> np.ndarray:
    """Which rows of the ``(timestamps, lats, lngs)`` block to keep.

    One mask flags the rows with a cell that did not parse, a timestamp
    that is not finite or a coordinate out of range (NaN fails every
    comparison), and only those go, in input order, through
    :func:`_explain`, given the source, line, raw text and cells
    ``row(index)`` spells out.
    """
    timestamp, lat, lng = block
    flagged = ~(np.isfinite(timestamp) & (np.abs(lat) <= 90.0) & (np.abs(lng) <= 180.0))
    for index in np.flatnonzero(flagged).tolist():
        record = _explain(*row(index), on_error, report)
        if record is not None:
            _, lat[index], lng[index], timestamp[index] = record
            flagged[index] = False
    report.loaded += len(flagged) - int(flagged.sum())
    return ~flagged


def _by_row(rows: Iterator[Row]) -> Cut:
    """The ``Cut`` of a tokeniser that yields one row at a time."""
    return lambda size: [list(column) for column in zip(*islice(rows, size))]


def _load(
    cut: Cut,
    scalar: Scalar,
    name: str,
    on_error: str,
    max_records: Optional[int] = None,
    nothing: Optional[str] = None,
) -> Union[LocationDataset, Tuple[LocationDataset, QuarantineReport]]:
    """The one way tokenised rows become a dataset, whatever cut them.

    ``cut`` is drawn in slices of at most as many rows as records are
    still wanted, so a load stops on the line of the ``max_records``-th
    record it keeps, and no slice's tokens outlive its pass.  A slice's
    cells are parsed a column at a time and screened by :func:`_screen`.
    ``nothing`` is what to raise with when no row loads and none is
    quarantined.
    """
    report = QuarantineReport()
    cap = math.inf if max_records is None else max_records
    pieces = iter(lambda: cut(min(_SLICE_ROWS, cap - report.loaded)), [])
    entities: List[Optional[str]] = []
    blocks = [np.empty((3, 0))]
    for files, lines, tokens, ids, *texts in pieces:
        block = np.stack(list(map(_float_column, texts, _PARSERS)))
        keep = _screen(
            block, lambda k: (files[k], lines[k], *scalar(tokens[k])), on_error, report
        )
        entities += compress(ids, keep)
        blocks.append(block[:, keep])
    if nothing and not report.loaded and not report.rows:
        raise ValueError(nothing)
    columns = np.concatenate(blocks, axis=1)
    dataset = LocationDataset.from_columns(entities, columns, name)
    return (dataset, report) if on_error == "skip" else dataset


def _byte_cut(path: Path, delimiter: str) -> Optional[Tuple[Any, ...]]:
    r"""``(header, data, numbers, starts, ends)`` of ``path`` when
    :func:`load_csv` may cut it in bulk, else None: its header line, its
    bytes and, per data row, its line number and its cells' ``(start,
    end)`` byte offsets, one row of ``starts`` and ``ends`` per column.

    Bytes that are not all ASCII are decoded as reading the text with
    ``utf-8-sig`` decodes them (the same errors, no byte-order mark) and
    encoded again.  A ``"\n"``, a ``"\r\n"`` and a lone ``"\r"`` each end
    a line, as universal newlines and ``csv.reader`` end them (``"\x0b"``,
    ``"\x85"`` and the other ``str.splitlines`` breaks stay inside a
    cell).  Bulk needs: a one-character delimiter that is not a quote or a
    line end, no ``'"'`` in the file, a non-blank first line of unique
    names, the header's delimiter count on every non-blank line, and no
    line of more bytes than ``csv.field_size_limit()`` — else the cells
    ``csv.reader`` reads are not the delimiter splits of the lines.
    """
    data = path.read_bytes()
    if not data.isascii():
        data = codecs.getincrementaldecoder("utf-8-sig")().decode(data, True).encode()
    if len(delimiter) != 1 or delimiter in '\r\n"' or b'"' in data:
        return None
    u = np.frombuffer(data, np.uint8)
    # Every "\r" and "\n" ends a segment; the "\n" of a "\r\n" ends an empty
    # one and no line, so it does not count towards the line numbers.
    breaks = np.flatnonzero((u == ord("\n")) | (u == ord("\r")))
    begin, end = np.append(0, breaks + 1), np.append(breaks, len(u))
    crlf = (u[breaks] == ord("\n")) & (u[breaks - 1] == ord("\r"))
    header = data[: end[0]].decode()
    names, limit = header.split(delimiter), csv.field_size_limit()
    if not header or len(set(names)) < len(names) or (end - begin).max() > limit:
        return None
    # The header holds len(names) - 1 delimiters.  When the file holds that
    # many per non-blank line, and each row's share of them lies inside its
    # line, every line holds exactly that many.
    sep = delimiter.encode("utf-8", "surrogatepass")
    marks = np.flatnonzero(u == sep[0])
    for shift, byte in enumerate(sep[1:], 1):
        marks = marks[u[marks + shift] == byte]
    rows = np.flatnonzero(end[1:] > begin[1:]) + 1
    if len(marks) != (len(names) - 1) * (len(rows) + 1):
        return None
    cuts = marks[len(names) - 1 :].reshape(len(rows), len(names) - 1)
    starts = np.vstack([begin[rows], cuts.T + len(sep)])
    ends = np.vstack([cuts.T, end[rows]])
    if (starts[1:] <= starts[:1]).any() or (ends[:-1] >= ends[-1:]).any():
        return None
    return header, data, np.cumsum(np.append(1, ~crlf))[rows], starts, ends


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
    r"""Load records from a delimited text file with a header row.

    The timestamp column may hold POSIX seconds or ISO 8601 strings.  With
    ``on_error="raise"`` (default), rows with unparsable or out-of-range
    coordinates raise immediately and only the dataset is returned.  With
    ``on_error="skip"``, bad rows are quarantined and the return value is
    ``(dataset, QuarantineReport)``.  A missing or incomplete header always
    raises — that is a structural problem, not a bad row.

    A quote-free file whose non-blank lines are all as wide as its header
    (every file :func:`save_csv` writes) is cut as bytes: a plain decimal
    cell is read exactly, with ``float()``'s bits, any other cell through
    the per-cell parser, and each run of rows of one entity decodes its
    name once.  Any other file is read with ``csv.reader``.  Both give the
    same dataset, report and errors.

    >>> import tempfile
    >>> from repro.data import LocationDataset, Record
    >>> with tempfile.TemporaryDirectory() as directory:
    ...     path = Path(directory) / "side.csv"
    ...     records = [Record("a", 37.5, -122.2, 20.0), Record("a", 37.0, -122.0, 10)]
    ...     save_csv(LocationDataset.from_records(records), path)
    ...     with path.open("a", newline="") as handle:
    ...         _ = handle.write("b,95.0,-122.0,30\r\n")
    ...     dataset, report = load_csv(path, on_error="skip")
    >>> dataset.entities, dataset.columns("a")[1].tolist()
    (['a'], [37.0, 37.5])
    >>> report.loaded, report.rows[0][1:]
    (2, (4, 'latitude out of range: 95.0', 'b,95.0,-122.0,30'))
    """
    _check_on_error(on_error)
    path = Path(path)
    columns = (entity_column, time_column, lat_column, lng_column)
    bulk = _byte_cut(path, delimiter)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader([bulk[0]] if bulk else handle, delimiter=delimiter)
        header = next(reader, None)
        if header is None or not set(columns) <= set(header):
            raise ValueError(
                f"{path}: header must contain {sorted(set(columns))}, got {header}"
            )
        # Keyed as the ``csv`` module's dict reader keys a row: a repeated
        # header name means its last column, a short row reads ``None`` in
        # the columns it lacks, a long row's surplus is one list.
        width, pad = len(header), [None] * len(header)
        position = dict(zip(header, range(width)))
        at = [position[column] for column in columns]
        pick = itemgetter(*at)
        source, name = str(path), name or path.stem

        if bulk:
            _, data, numbers, starts, ends = bulk
            first, last = starts[at], ends[at]
            block = _decimals(data, first[1:].ravel(), last[1:].ravel()).reshape(3, -1)
            for column, parse, a, b in zip(block, _PARSERS, first[1:], last[1:]):
                rest = np.flatnonzero(np.isnan(column))
                column[rest] = _float_column(_decoded(data, a[rest], b[rest]), parse)

            def row(index: int) -> Tuple[str, int, str, Cells]:
                raw = data[starts[0, index] : ends[-1, index]].decode()
                return source, int(numbers[index]), raw, pick(raw.split(delimiter))

            report = QuarantineReport()
            keep = _screen(block, row, on_error, report)
            names, codes = _entity_codes(data, first[0][keep], last[0][keep])
            dataset = LocationDataset._from_codes(names, codes, block[:, keep], name)
            return (dataset, report) if on_error == "skip" else dataset

        def scalar(row: List[str]) -> Tuple[str, Cells]:
            view: Dict[Optional[str], Any] = dict(zip(header, row + pad[len(row) :]))
            if len(row) > width:
                view[None] = row[width:]
            values = ("" if value is None else str(value) for value in view.values())
            return delimiter.join(values), pick(row + pad)

        rows = (
            (source, reader.line_num, row) + pick(row + pad) for row in reader if row
        )
        return _load(_by_row(rows), scalar, name, on_error)


def save_csv(dataset: LocationDataset, path: PathLike, delimiter: str = ",") -> None:
    """Write a dataset as ``entity,lat,lng,timestamp`` with a header row."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(["entity", "lat", "lng", "timestamp"])
        for entity in dataset.entities:
            timestamps, lats, lngs = (c.tolist() for c in dataset.columns(entity))
            writer.writerows(
                [entity, f"{lat:.7f}", f"{lng:.7f}", f"{timestamp:.3f}"]
                for timestamp, lat, lng in zip(timestamps, lats, lngs)
            )


def _text_row(source: str, line: int, text: str, cells: Optional[Cells]) -> Row:
    """A row of a headerless format.  Its token is ``(text, cells)`` as it
    stands, so the ``Scalar`` of these formats is ``tuple``."""
    return (source, line, (text, cells), *(cells or [None] * 4))


def _plt_rows(user_dirs: Iterable[Path]) -> Iterator[Row]:
    """The rows of every GeoLife ``.plt`` trajectory file, in path order.

    Format: 6 header lines, then ``lat,lng,0,altitude,days,date,time``
    rows.  Rows with fewer fields (including the blank trailing line many
    files end with) have no cells.
    """
    for user_dir in user_dirs:
        for plt_path in sorted((user_dir / "Trajectory").glob("*.plt")):
            with plt_path.open(encoding="utf-8-sig") as handle:
                for number, text in islice(enumerate(handle, start=1), 6, None):
                    parts = text.strip().split(",")
                    cells = None
                    if len(parts) >= 7:
                        when = f"{parts[5]}T{parts[6]}"
                        cells = (user_dir.name, when, parts[0], parts[1])
                    yield _text_row(str(plt_path), number, text, cells)


def load_geolife(
    root: PathLike,
    name: str = "geolife",
    max_users: Optional[int] = None,
    on_error: str = "raise",
) -> Union[LocationDataset, Tuple[LocationDataset, QuarantineReport]]:
    """Load the GeoLife GPS trajectory corpus.

    Expects the published layout ``<root>/Data/<user>/Trajectory/*.plt``;
    a layout without the ``Data`` level is also accepted.  Truncated rows
    are skipped as they always were.  With ``on_error="skip"``, truncated,
    malformed and out-of-range rows are quarantined and the return value
    is ``(dataset, QuarantineReport)``.
    """
    _check_on_error(on_error)
    root = Path(root)
    data_dir = root / "Data" if (root / "Data").is_dir() else root
    user_dirs = sorted(p for p in data_dir.iterdir() if p.is_dir())[:max_users]
    nothing = f"no GeoLife trajectories found under {root}"
    return _load(_by_row(_plt_rows(user_dirs)), tuple, name, on_error, nothing=nothing)


def _checkin_rows(path: Path, handle: Iterable[str]) -> Iterator[Row]:
    """The lines of a check-in TSV as rows: user, time, lat and lng are the
    first four tab-separated fields, and a line with fewer has no cells."""
    for number, text in enumerate(handle, start=1):
        parts = text.rstrip("\n").split("\t")
        cells = tuple(parts[:4]) if len(parts) >= 4 else None
        yield _text_row(str(path), number, text, cells)


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
    nothing = f"no check-ins found in {path}"
    with path.open(encoding="utf-8-sig") as handle:
        rows = _checkin_rows(path, handle)
        return _load(_by_row(rows), tuple, name, on_error, max_records, nothing)
