"""Atomic whole-linker snapshot directories.

Layout under a snapshot root::

    root/
      CURRENT               # "snap-000042" — pointer to the live snapshot
      snap-000042/
        manifest.json       # format, snapshot ordinal, watermark, digests
        state.pkl           # pickled StreamingLinker.checkpoint(), packed
        score_cache.pkl     # pickled ScoreCache.checkpoint() (a bare
                            # ScoreCache.save root holds only this one)
      log-000042            # optional: the batches a long-lived writer
                            # applied after snap-000042, one framed entry
                            # each (see repro.store.eventlog)

A snapshot is the whole state; a log only extends the snapshot whose
ordinal it names, and
:meth:`~repro.core.streaming.StreamingLinker.restore` replays it on top.

Payloads are ``checkpoint()`` captures, pickled — the dicts a rollback
``restore()``-s in memory, with a linker's per-entity histories
packed into flat arrays by
:meth:`~repro.core.streaming.StreamingLinker.save` (see
:data:`SNAPSHOT_FORMAT`), so pickling them costs a few dozen array
copies, not one object per entity.  All framing lives here.

Write protocol — a crash at *any* point leaves the previous snapshot
fully readable:

1. stale ``*.tmp-*`` litter from earlier crashes is removed;
2. every payload file is written (and fsynced) into
   ``snap-<n>.tmp-<pid>``;
3. ``manifest.json`` — format version, snapshot ordinal, event-time
   watermark and a SHA-256 digest per payload file — is written last;
4. the tmp dir is promoted with one ``os.replace`` to ``snap-<n>``;
5. ``CURRENT`` is swapped (:func:`~repro.store.durable.replace_file`)
   and older snapshots are pruned, with every log (each extends an
   older snapshot, which the new one supersedes).

Readers ignore ``CURRENT`` except as a hint: they pick the
highest-numbered ``snap-*`` directory (a crash between steps 4 and 5
must not lose a promoted snapshot) and verify the manifest before
touching any payload.  Every verification failure is a *named*
:class:`SnapshotError` subclass so
:meth:`~repro.core.streaming.StreamingLinker.restore` can warn by name
and fall back to a cold start.

The deterministic chaos hook
:func:`~repro.exec.faults.kill_switch` fires after every payload write
and after the promote, which is how the crash-restart CI drill
(``tools/crash_restart.py``) SIGKILLs a writer mid-snapshot at a chosen
ordinal.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import shutil
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exec.faults import kill_switch
from .durable import TMP_GLOB, fsync_path, replace_file, write_file

__all__ = [
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "SnapshotMissing",
    "SnapshotTruncated",
    "SnapshotDigestMismatch",
    "SnapshotVersionSkew",
    "write_snapshot",
    "read_snapshot",
    "load_state",
]

#: Bump on any incompatible change to the state layout; readers refuse
#: snapshots from other formats (version skew) instead of guessing or
#: converting.  Format 5: the per-entity objects of the linker state are
#: flat arrays — per side, the histories' ids, scalar columns, row
#: counts and concatenated ``(window, cell, count)`` columns; the LSH
#: index as its placements only (bucket membership is rebuilt from
#: them).  Format 6: the score cache as columns too — its rows' owner
#: codes renumbered into the spaces and distinct ids they reference,
#: beside the value columns.  Format 7: each corpus as the residency
#: columns it holds — the resident ids in row order, the per-row
#: ``versions`` / ``starts`` / ``sizes`` / ``dir_starts`` / ``dir_sizes``
#: and the ``(3, D)`` ``directory`` table (windows, offsets, counts), as
#: they are (format 6 packed one directory per resident).  Format 8: the
#: LSH index as columns — per side the placed entities' ids and their
#: rows of the ``(codes, bands)`` bucket matrix, beside the spec and the
#: stats (format 7 pickled a ``(side, id) -> bucket list`` dict).  So a
#: payload is a few dozen arrays, not one pickled object per entity or
#: per cached pair.  Formats 1–7 are refused by name (format 5 pickled
#: one ``(space, left id, right id)`` tuple per cached pair, format 4
#: every ``MobilityHistory`` and corpus resident).
SNAPSHOT_FORMAT = 8

CURRENT = "CURRENT"
_SNAP_RE = re.compile(r"^snap-(\d{6})$")
_LOG_GLOB = "log-*"
#: Chaos-hook event names (see :func:`repro.exec.faults.kill_switch`).
EVENT_FILE = "snapshot-file"
EVENT_PROMOTE = "snapshot-promote"


class SnapshotError(RuntimeError):
    """A snapshot directory cannot be trusted (named subclasses below)."""


class SnapshotMissing(SnapshotError):
    """No snapshot exists under the root (plain cold start, no warning)."""


class SnapshotTruncated(SnapshotError):
    """Manifest or payload file absent/unparseable — write never finished."""


class SnapshotDigestMismatch(SnapshotError):
    """A payload file does not hash to its manifest digest."""


class SnapshotVersionSkew(SnapshotError):
    """Snapshot written by a different (older/newer) format version."""


def pack_rows(
    objects: Mapping[str, object], arrays: Mapping[str, type], scalars: Sequence[str]
) -> Dict[str, object]:
    """Keyed objects as the flat arrays a payload holds: the keys in
    order, each object's row count and its ``arrays`` attributes
    concatenated (one column per name, of the given dtype), and its
    integer ``scalars`` as one column each — as many arrays for a
    thousand objects as for one.  :func:`unpack_rows` inverts it."""
    held = list(objects.values())
    packed: Dict[str, object] = {"ids": list(objects)}
    for name, dtype in arrays.items():
        parts = [getattr(one, name) for one in held]
        packed[name] = np.concatenate([np.empty(0, dtype), *parts])
    packed["rows"] = np.array([len(part) for part in parts], np.int64)
    for name in scalars:
        packed[name] = np.array([getattr(one, name) for one in held], np.int64)
    return packed


def unpack_rows(
    packed: Mapping[str, object], arrays: Mapping[str, type], scalars: Sequence[str]
) -> Iterator[Tuple[str, List[np.ndarray], Tuple[int, ...]]]:
    """``(key, arrays, scalars)`` per object :func:`pack_rows` packed, in
    order.  The arrays are views into the packed columns, so a caller
    that keeps one keeps its whole packed column alive."""
    bounds = np.cumsum(np.append(0, packed["rows"])).tolist()
    columns = [packed[name] for name in arrays]
    values = zip(*(packed[name].tolist() for name in scalars))
    for k, (key, scalar) in enumerate(zip(packed["ids"], values)):
        yield key, [column[bounds[k] : bounds[k + 1]] for column in columns], scalar


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _snap_dirs(root: Path) -> Dict[int, Path]:
    found: Dict[int, Path] = {}
    for child in root.iterdir():
        match = _SNAP_RE.match(child.name)
        if match and child.is_dir():
            found[int(match.group(1))] = child
    return found


def log_name(ordinal: int) -> str:
    """The file name of the event log that extends snapshot ``ordinal``."""
    return f"log-{ordinal:06d}"


def newest_ordinal(root: Path) -> int:
    """The ordinal of the newest promoted snapshot under ``root``."""
    snaps = _snap_dirs(root)
    if not snaps:
        raise SnapshotMissing(f"no snap-* directory under {root}")
    return max(snaps)


def _clean_litter(root: Path) -> None:
    for litter in root.glob(TMP_GLOB):
        if litter.is_dir():
            shutil.rmtree(litter)
        else:
            litter.unlink()


def write_snapshot(
    root: Path,
    payloads: Dict[str, object],
    watermark: Optional[float] = None,
) -> Path:
    """Atomically publish one snapshot; returns the promoted directory.

    Each of ``payloads`` (name → picklable ``checkpoint()`` capture)
    lands in its own ``<name>.pkl``, digest in the manifest;
    ``watermark`` is manifest metadata for operators.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    _clean_litter(root)
    existing = _snap_dirs(root)
    ordinal = max(existing, default=0) + 1
    final = root / f"snap-{ordinal:06d}"
    tmp = root / f"{final.name}.tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        digests: Dict[str, str] = {}

        def stage(name: str, data: bytes) -> None:
            with open(tmp / name, "wb") as handle:
                write_file(handle, data)
            kill_switch(EVENT_FILE)

        for name, payload in payloads.items():
            name = f"{name}.pkl"
            stage(name, pickle.dumps(payload, protocol=4))
            digests[name] = _sha256(tmp / name)
        manifest = {
            "format": SNAPSHOT_FORMAT,
            "snapshot": ordinal,
            "watermark": watermark,
            "files": digests,
        }
        stage("manifest.json", json.dumps(manifest, indent=2, sort_keys=True).encode())
        fsync_path(tmp)
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    fsync_path(root)
    kill_switch(EVENT_PROMOTE)
    # Swap the pointer, then prune superseded snapshots; a crash anywhere
    # here costs only disk space, never the promoted snapshot.
    replace_file(root / CURRENT, final.name.encode())
    for old_dir in existing.values():
        shutil.rmtree(old_dir, ignore_errors=True)
    for old_log in root.glob(_LOG_GLOB):
        old_log.unlink(missing_ok=True)
    return final


def read_snapshot(root: Path) -> Tuple[Dict[str, object], Path]:
    """Locate and verify the newest snapshot; ``(manifest, directory)``.

    Raises a named :class:`SnapshotError` subclass on anything
    untrustworthy; warns (but proceeds) about tmp litter from crashed
    writers.
    """
    root = Path(root)
    if root.is_file():
        raise SnapshotVersionSkew(
            f"{root} is a single file, not a snapshot root (as score "
            "caches were before snapshot format 2)"
        )
    if not root.is_dir():
        raise SnapshotMissing(f"no snapshot root at {root}")
    litter = sorted(p.name for p in root.glob(TMP_GLOB))
    if litter:
        warnings.warn(
            f"snapshot root {root} holds partial tmp litter from a crashed "
            f"writer: {litter} (ignored; the promoted snapshot is intact)",
            RuntimeWarning,
            stacklevel=2,
        )
    snaps = _snap_dirs(root)
    if not snaps:
        raise SnapshotMissing(f"no snap-* directory under {root}")
    directory = snaps[max(snaps)]
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise SnapshotTruncated(f"{directory} has no manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotTruncated(
            f"{manifest_path} is unparseable ({exc}); the write never finished"
        ) from None
    if not isinstance(manifest, dict) or "files" not in manifest:
        raise SnapshotTruncated(f"{manifest_path} lacks the files table")
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotVersionSkew(
            f"{directory} was written by snapshot format "
            f"{manifest.get('format')!r}; this build reads format "
            f"{SNAPSHOT_FORMAT}"
        )
    for name, recorded in manifest["files"].items():
        payload = directory / name
        if not payload.exists():
            raise SnapshotTruncated(f"{directory} lost payload file {name}")
        actual = _sha256(payload)
        if actual != recorded:
            raise SnapshotDigestMismatch(
                f"{payload} hashes to {actual[:12]}… but the manifest "
                f"recorded {str(recorded)[:12]}…"
            )
    return manifest, directory


def load_state(root: Path, names: Sequence[str]) -> List[Dict[str, object]]:
    """The named payloads of the newest snapshot, verified then
    unpickled, in ``names`` order (one absent — a bare score-cache root
    asked for linker state — is :class:`SnapshotTruncated`)."""
    manifest, directory = read_snapshot(root)
    absent = [name for name in names if f"{name}.pkl" not in manifest["files"]]
    if absent:
        raise SnapshotTruncated(f"{directory} holds no {absent} payload")
    return [
        pickle.loads((directory / f"{name}.pkl").read_bytes()) for name in names
    ]
