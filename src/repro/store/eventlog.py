"""The event log: every applied batch since the newest snapshot.

Internal (no ``__all__``; its two failure classes are exported from
:mod:`repro.store`).  A long-lived writer — the serving layer's single
writer, the crash drill's child — makes its state durable through a
:class:`Checkpointer`: a full snapshot
(:meth:`~repro.core.streaming.StreamingLinker.save`) when one is due,
and otherwise one append of the batch it just applied to the log that
extends the newest snapshot.  An append costs one ``write`` and one
fsync of a few hundred bytes, where a snapshot rewrites the whole state.

Layout beside the snapshots of a root (see :mod:`repro.store.snapshot`)::

    root/
      snap-000042/          # the newest snapshot
      log-000042            # every batch applied after it, in order

    log    = header, frame, frame, ...
    header = b"SLIMLOG\\0", uint32 log format, uint32 snapshot ordinal
    frame  = uint32 payload length, uint32 CRC32 of the payload, payload

All integers are little-endian.  A payload is one pickled
:func:`batch_entry`: the batch's observe and retire events in applied
order — an observe's records as an id list plus one ``(3, n)`` float64
``lat`` / ``lng`` / ``timestamp`` column block, a retire's ids — and a
``relinked`` flag, true when a relink ran (and held) after the events.
:meth:`~repro.core.streaming.StreamingLinker.restore` is the newest
snapshot plus a replay of its log, batch by batch, relinking exactly
where the writer did, so retention evictions and ``RelinkStats`` come
back too, not just links.

What a reader does with each failure (``strict`` is
:meth:`~repro.core.streaming.StreamingLinker.restore`'s flag):

======================================  ===============================
the log                                 restore
======================================  ===============================
absent                                  the snapshot alone, silently
ends inside a frame, or its last frame  drops that frame with a
fails its CRC (a write torn by a        ``RuntimeWarning`` naming it;
crash)                                  ``strict`` too
a frame before the last fails its CRC   :class:`EventLogCorrupt` under
                                        ``strict``; else warns by name
                                        and replays the intact prefix
header names another snapshot ordinal,  :class:`EventLogSkew` under
log format or magic                     ``strict``; else warns by name
                                        and replays nothing
======================================  ===============================

The writer never appends after a gap or a torn tail: a
:class:`Checkpointer`'s first persist is a snapshot (so a writer life
never extends a log it inherited), and so is the persist after any
failed one.  A new snapshot supersedes every older log, and
:func:`~repro.store.snapshot.write_snapshot` prunes them with the older
snapshots.
"""

from __future__ import annotations

import pickle
import struct
import warnings
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exec.faults import kill_switch
from .durable import fsync_path, write_file
from .snapshot import SnapshotError, log_name, newest_ordinal

#: Bump on any incompatible change to the header, the framing or the
#: entry layout; a reader refuses another format (:class:`EventLogSkew`).
EVENT_LOG_FORMAT = 1

_MAGIC = b"SLIMLOG\x00"
_HEADER = struct.Struct("<8sII")
_FRAME = struct.Struct("<II")
#: Chaos-hook event names (see :func:`repro.exec.faults.kill_switch`):
#: an append's bytes are written but not yet fsynced / fsynced.
EVENT_WRITE = "eventlog-write"
EVENT_SYNC = "eventlog-sync"


class EventLogCorrupt(SnapshotError):
    """A frame before the log's last one fails its CRC32: the log was
    damaged after it was written, so what follows cannot be trusted."""


class EventLogSkew(SnapshotError):
    """The log's header names another snapshot ordinal or log format (or
    is not an event-log header at all): it does not extend this
    snapshot."""


def batch_entry(
    events: Iterable[Tuple[str, str, Sequence]], relinked: bool
) -> Dict[str, object]:
    """One applied batch as a log entry.  ``events`` are ``(kind, side,
    items)`` in applied order: ``"observe"`` items are records,
    ``"retire"`` items are entity ids."""
    rows: List[Tuple[str, str, list, Optional[np.ndarray]]] = []
    for kind, side, items in events:
        if kind == "observe":
            columns = np.array(
                [(r.lat, r.lng, r.timestamp) for r in items], np.float64
            ).T
            rows.append((kind, side, [r.entity_id for r in items], columns))
        else:
            rows.append((kind, side, list(items), None))
    return {"events": rows, "relinked": relinked}


class EventLog:
    """Appender for the log of the newest snapshot under ``root``.

    The log file is named on the first append — after the snapshot it
    extends was promoted — and created there (truncating any stale file
    of that name) with its header; every later append is one frame.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.path: Optional[Path] = None

    def append(self, entry: Dict[str, object]) -> None:
        payload = pickle.dumps(entry, protocol=4)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        if self.path is None:
            ordinal = newest_ordinal(self.root)
            path = self.root / log_name(ordinal)
            header = _HEADER.pack(_MAGIC, EVENT_LOG_FORMAT, ordinal)
            with open(path, "wb") as handle:
                write_file(handle, header + frame, EVENT_WRITE)
            fsync_path(self.root)
            self.path = path
        else:
            with open(self.path, "ab") as handle:
                write_file(handle, frame, EVENT_WRITE)
        kill_switch(EVENT_SYNC)


class Checkpointer:
    """One writer life's durability: snapshot when due, else append.

    A snapshot is due on the first :meth:`persist`, after any persist
    that raised (the log must not have a gap), and once ``every - 1``
    appends follow the last snapshot — so a restore replays at most
    ``every - 1`` batches.  :attr:`dirty` is false only while this
    life's last persist was a snapshot that held: otherwise the newest
    snapshot may need a log replay (or miss a batch), and a clean stop
    snapshots, so a clean restart replays nothing.
    """

    def __init__(self, root: object, every: int) -> None:
        if every < 1:
            raise ValueError(f"snapshot cadence must be >= 1, got {every!r}")
        self.root = Path(root)
        self.every = every
        self.dirty = True
        self._log: Optional[EventLog] = None  # None: a snapshot is due
        self._appended = 0

    def persist(self, linker, entry: Dict[str, object]) -> None:
        """Make the batch ``entry`` describes durable; ``linker`` already
        holds it."""
        self.dirty = True
        if self._log is None or self._appended >= self.every - 1:
            self.snapshot(linker)
            return
        log, self._log = self._log, None  # a failed append: snapshot next
        log.append(entry)
        self._log = log
        self._appended += 1

    def snapshot(self, linker) -> None:
        """Write a full snapshot of ``linker`` and start its log."""
        self._log = None
        linker.save(self.root)
        self._log = EventLog(self.root)
        self._appended = 0
        self.dirty = False


def _frames(data: bytes, path: Path, strict: bool) -> List[bytes]:
    """The payloads of the intact frames after the header."""
    payloads: List[bytes] = []
    offset = _HEADER.size
    while offset < len(data):
        start = offset + _FRAME.size
        if start <= len(data):
            length, crc = _FRAME.unpack_from(data, offset)
        else:
            length, crc = len(data), 0  # not even a whole frame head
        end = start + length
        payload = data[start:end]
        if end <= len(data) and zlib.crc32(payload) == crc:
            payloads.append(payload)
            offset = end
        elif end >= len(data):
            warnings.warn(
                f"event log {path}: torn last frame {len(payloads)} at byte "
                f"{offset} ({len(data) - offset} bytes) dropped; replaying "
                f"the {len(payloads)} entries before it",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        else:
            _refuse(
                EventLogCorrupt(
                    f"event log {path}: frame {len(payloads)} at byte {offset} "
                    "fails its CRC32 and is not the last frame"
                ),
                f"replaying the {len(payloads)} entries before it",
                strict,
            )
            break
    return payloads


def _refuse(error: SnapshotError, fallback: str, strict: bool) -> None:
    """Raise ``error`` under ``strict``; else warn naming it."""
    if strict:
        raise error
    warnings.warn(
        f"{type(error).__name__}: {error}; {fallback}", RuntimeWarning, stacklevel=2
    )


def read_log(root: Path, ordinal: int, strict: bool = False) -> List[Dict[str, object]]:
    """The entries of snapshot ``ordinal``'s log under ``root``, in
    append order — the intact ones, by the module's failure table."""
    path = Path(root) / log_name(ordinal)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    if len(data) < _HEADER.size:
        warnings.warn(
            f"event log {path}: torn header ({len(data)} bytes) dropped; "
            "replaying nothing",
            RuntimeWarning,
            stacklevel=2,
        )
        return []
    magic, log_format, named = _HEADER.unpack_from(data)
    if (magic, log_format, named) != (_MAGIC, EVENT_LOG_FORMAT, ordinal):
        _refuse(
            EventLogSkew(
                f"event log {path} has header (magic {magic!r}, format "
                f"{log_format}, snapshot {named}); snapshot {ordinal} of "
                f"this build needs ({_MAGIC!r}, {EVENT_LOG_FORMAT}, {ordinal})"
            ),
            "replaying nothing",
            strict,
        )
        return []
    return [pickle.loads(payload) for payload in _frames(data, path, strict)]
