"""Atomic whole-linker snapshot directories.

Layout under a snapshot root::

    root/
      CURRENT               # "snap-000042" — pointer to the live snapshot
      snap-000042/
        manifest.json       # format, snapshot ordinal, watermark, digests
        state.pkl           # pickled StreamingLinker.checkpoint()
        score_cache.pkl     # pickled ScoreCache.checkpoint() (a bare
                            # ScoreCache.save root holds only this one)

Payloads are ``checkpoint()`` captures pickled as-is — the dicts a
rollback ``restore()``-s in memory; all framing lives here.

Write protocol — a crash at *any* point leaves the previous snapshot
fully readable:

1. stale ``*.tmp-*`` litter from earlier crashes is removed;
2. every payload file is written (and fsynced) into
   ``snap-<n>.tmp-<pid>``;
3. ``manifest.json`` — format version, snapshot ordinal, event-time
   watermark and a SHA-256 digest per payload file — is written last;
4. the tmp dir is promoted with one ``os.replace`` to ``snap-<n>``;
5. ``CURRENT`` is swapped (:func:`~repro.store.durable.replace_file`)
   and older snapshots are pruned.

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
from typing import Dict, List, Optional, Sequence, Tuple

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
#: snapshots from other formats (version skew) instead of guessing.
#: Format 2: every payload is a ``checkpoint()`` capture (format 1
#: carried a hand-framed ``score_cache.bin`` and another ``state.pkl``).
#: Format 3: a corpus capture carries its flat columns as the backend's
#: capture (``"flats"``) instead of five ``flat_*`` entries.
#: Format 4: a history pickles its three bin columns and no derived
#: view; a corpus capture carries document frequencies as arrays and
#: per-entity residency in ``"window_index"`` (format 3 carried
#: ``entity_bins`` / ``df_slot`` dicts).  Format-4 residents written
#: while ``WindowIndex`` still had a ``slices`` dict carry it as a dead
#: attribute; an entity drops it when a refresh re-reads it or a
#: compaction rebases it.  Format-4 states written while a relink could
#: tolerate IDF drift carry that tolerance and the drift accumulators,
#: and their cache payloads a ``cap`` and LRU-ordered keys; all of it
#: is ignored on restore.  So are the ``lsh_members`` version dicts of
#: states written while the linker kept them (the LSH index follows the
#: corpus delta, and a retired id's stale mark is in the corpus capture).
#: Format-4 corpus captures written while IDF was a fourth flat column
#: carry an ``idf`` column (in ``flats["columns"]`` and, from a disk
#: backend, in its store manifest); restore drops it and re-derives IDF
#: per df slot from the captured document frequencies and size — the
#: same values, so the format number stays.  A pickled config written
#: while ``LinkageConfig`` had ``serve_batch`` / ``serve_staleness``
#: fields carries them as inert attributes: no field reads them, and
#: equality, ``to_dict()`` and ``without()`` see declared fields only.
SNAPSHOT_FORMAT = 4

CURRENT = "CURRENT"
_SNAP_RE = re.compile(r"^snap-(\d{6})$")
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
