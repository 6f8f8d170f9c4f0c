"""Out-of-core persistence: chunked column store + linker snapshots.

The building blocks behind the streaming linker's persistence story:

* :mod:`repro.store.chunks` — a chunked, Hilbert-ordered
  (:mod:`repro.store.hilbert`) on-disk column store the corpus flat
  array views spill into
  (:meth:`~repro.core.corpus.HistoryCorpus.spill`), read back through
  memory maps, so a corpus can exceed the RAM budget.  It is scratch: it rewinds in-process and has no crash
  protocol (no fsync, no manifest) — durability is the snapshot and the
  event log below, and a restart re-spills from them;
* :mod:`repro.store.columns` — the corpus flat columns, declared once,
  and the two backends a :class:`~repro.core.corpus.HistoryCorpus`
  holds them in: heap arrays, or the column store above (internal);
* :mod:`repro.store.snapshot` — atomic snapshot directories of pickled
  ``checkpoint()`` captures (``StreamingLinker.save`` / ``restore``,
  ``ScoreCache.save`` / ``load``): tmp-dir + ``os.replace`` promotion,
  a manifest with per-file SHA-256 digests, named failure classes for
  every way a snapshot can be untrustworthy;
* :mod:`repro.store.eventlog` — the append-only log of the batches a
  long-lived writer applied since its newest snapshot, and the
  snapshot-or-append cadence that writes it (internal; its failure
  classes :class:`EventLogCorrupt` / :class:`EventLogSkew` are exported
  here);
* :mod:`repro.store.durable` — the one durable file write the snapshot
  and the event log use.

This package owns *every* write into spill and snapshot directories —
the ``snapshot-io`` repro-lint rule rejects direct ``open()``/
``np.save`` writes to snapshot paths (and any ``os.replace`` /
``os.fsync`` / ``mkstemp`` call) anywhere else in the tree, the same
single-writer discipline the serve layer applies to published
snapshots.
"""

from .chunks import DEFAULT_CHUNK_ROWS, ChunkedColumnStore
from .eventlog import EventLogCorrupt, EventLogSkew
from .hilbert import hilbert_index, hilbert_key
from .snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotDigestMismatch,
    SnapshotError,
    SnapshotMissing,
    SnapshotTruncated,
    SnapshotVersionSkew,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "ChunkedColumnStore",
    "DEFAULT_CHUNK_ROWS",
    "hilbert_index",
    "hilbert_key",
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "SnapshotMissing",
    "SnapshotTruncated",
    "SnapshotDigestMismatch",
    "SnapshotVersionSkew",
    "EventLogCorrupt",
    "EventLogSkew",
    "write_snapshot",
    "read_snapshot",
]
