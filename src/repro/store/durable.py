"""The one durable file write behind every ``repro.store`` writer.

Internal (no ``__all__``).  The ``snapshot-io`` repro-lint rule rejects
``os.replace`` / ``os.fsync`` / ``tempfile.mkstemp`` outside
``repro/store/``, so this stays the only atomic writer.  Temporary names
always contain ``.tmp-`` — one litter pattern to clean and warn about.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Optional

from ..exec.faults import kill_switch

#: Matches every temporary name a ``repro.store`` writer creates.
TMP_GLOB = "*.tmp-*"


def fsync_path(path: Path) -> None:
    """Flush a file's or directory's metadata to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_file(handle, data: bytes, event: Optional[str] = None) -> None:
    """Write ``data`` to an open binary handle and fsync it; ``event``
    names a :func:`~repro.exec.faults.kill_switch` hook fired between
    the write and the fsync."""
    handle.write(data)
    handle.flush()
    if event is not None:
        kill_switch(event)
    os.fsync(handle.fileno())


def replace_file(path: Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``: tmp file in the same
    directory (renames across filesystems are not atomic) → fsync →
    ``os.replace`` → fsync the directory.  A crash or error leaves the
    old file or the new one, never a hybrid; the tmp is unlinked on
    error."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            write_file(handle, data)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    fsync_path(path.parent)
