"""Incremental (streaming) linkage.

The paper motivates scalable linkage with "the scale and *dynamic nature*
of location datasets" (Sec. 1): real feeds grow continuously.
:class:`StreamingLinker` supports that case end to end:

* records are ingested incrementally — per-entity mobility histories are
  *extended in place* (no rebuild of the temporal binning);
* ``relink()`` is a **delta relink**: candidate selection and scoring
  cost O(delta) — they visit what a small delta touched, not the
  candidate set — and matching and thresholding run on the result.

The reuse machinery, stage by stage:

* **Corpus statistics** — both sides keep one live
  :class:`~repro.core.corpus.HistoryCorpus` whose
  :meth:`~repro.core.corpus.HistoryCorpus.refresh` folds history growth
  into the document frequencies and extends the batch kernel's array
  views in place (O(changed bins), not O(corpus)).
* **Candidates** — the pair table below is the one maintained
  candidate set.  Under LSH, the bucket index is persistent, keyed by
  the score cache's entity codes (the pair table's too), and follows
  the corpus refresh's :class:`~repro.core.corpus.CorpusDelta` (the one
  record of what a relink changed): evicted entities' rows are
  withdrawn, dirty ones' re-signatured, and the table drops the pairs of
  those entities and takes the dirty ones' pair codes back from
  :meth:`~repro.lsh.index.LshIndex.pairs_of` — a pair's shared-bucket
  status changes only when an endpoint is re-placed or withdrawn.  The
  index is rebuilt from scratch only when the growing window span
  changes the signature layout itself.  A rebuilt index, and every other
  generator, hands over its full set, which is diffed against the
  table's.
* **Scores** — a :class:`~repro.core.score_cache.ScoreCache` memoises
  every pair's raw Eq. 2 total keyed on the pair's history versions, and
  the **pair table** (:class:`_PairTable`) is a view of it: the
  candidate pairs sorted by pair code and both endpoints' history
  sizes.  A relink re-asks the cache (and, on a miss, the kernel) only
  about the pairs new in the candidate set and those the cache no
  longer holds under both endpoints' current history versions — grown
  since, or dropped or rewound in the cache since the last relink.  The
  linker drops the rows of the corpus' ``idf_affected`` entities first
  (a third entity's new bins can move the document frequency, hence the
  idf weight, inside an otherwise untouched pair), so IDF drift needs
  nothing else; nor does a retirement, another owner's sweep or a
  ``clear()``.  A full ``restore()`` of the cache from outside the
  linker (counted in
  :attr:`~repro.core.score_cache.ScoreCache.adopted`) can put back
  totals from before some IDF drift, which version keys cannot see: the
  next relink drops every row of its space first.  Every other pair
  is the cache hit it would have been, and is counted as one, which
  makes an incremental relink produce **exactly** the links and scores
  of a cold full relink.  The cold relink, and the first one after a
  full restore, start from an empty table: every candidate new.
* **Matching / threshold** — recomputed in full each relink (they are
  global decisions over the edge set, and cheap next to scoring).
* **Retention** — a :class:`~repro.core.retention.RetentionPolicy`
  (``retention="sliding_window"`` / ``"max_entities"`` on the config)
  retires entities that left the live working set ahead of each relink,
  cascading the removal through every layer above — so a long-running
  linker is *bounded-memory* instead of growing with everything it ever
  saw.  A relink after retirement equals a cold run over the survivors.
* **Transaction** — a relink is all-or-nothing, and its capture is the
  one :meth:`StreamingLinker.checkpoint`: every layer — histories,
  corpora, the LSH index's bucket matrices, the score cache's records,
  the pair table — is replaced, never written, so the capture holds the
  old values by reference and a failure restores it.  Only a snapshot
  packs it into flat arrays.

:attr:`StreamingLinker.last_relink` reports what the delta machinery did
(pairs re-scored vs served from cache, dirty entities, IDF invalidations,
whether the LSH index was rebuilt).

The windowing origin must be fixed up front (before the first record), so
window indices remain stable as data arrives.

>>> from repro.data import Record
>>> linker = StreamingLinker(origin=0.0)
>>> linker.observe("left", [Record("u", 37.77, -122.42, 100.0),
...                         Record("w", 40.71, -74.00, 110.0)])
2
>>> linker.observe("right", [Record("v", 37.77, -122.42, 130.0),
...                          Record("x", 40.71, -74.00, 140.0)])
2
>>> sorted(linker.relink().links.items())
[('u', 'v'), ('w', 'x')]
>>> linker.relink().links["u"]       # zero-delta relink: pure cache hits
'v'
>>> linker.last_relink.pairs_rescored
0
"""

from __future__ import annotations

# repro-lint: timing-module -- relink reports include wall-clock stage timings
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..data.records import Record
from ..lsh.index import LshIndex, _pack_index, _unpack_index
from ..lsh.signature import signature_matrix
from ..pipeline.config import LinkageConfig
from ..pipeline.context import LinkageContext
from ..pipeline.report import LinkageReport
from ..pipeline.runner import LinkagePipeline
from ..pipeline.stages import (
    STAGE_CANDIDATES,
    STAGE_PREPARE,
    MatchingStage,
    ScoringStage,
    ThresholdStage,
    _SortedPairs,
    candidate_stages,
)
from .matching import EdgeSet
from ..store.eventlog import read_log
from ..store.snapshot import (
    SnapshotError,
    SnapshotMissing,
    load_state,
    newest_ordinal,
    write_snapshot,
)
from ..temporal import Windowing
from .corpus import CorpusDelta, HistoryCorpus, _pack_corpus, _unpack_corpus
from .history import (
    MobilityHistory,
    _pack_histories,
    _unpack_histories,
    distinct,
    ingest_columns,
)
from .retention import RetentionPolicy, build_retention
from .score_cache import ScoreCache, _pack_cache, split_codes, within
from .similarity import SimilarityEngine, score_cache_space

__all__ = ["StreamingLinker", "RelinkStats"]


def _copy_sides(by_side: Dict[str, dict]) -> Dict[str, dict]:
    """Two-level shallow copy of a ``{side: {...}}`` mapping."""
    return {side: dict(inner) for side, inner in by_side.items()}


@dataclass(frozen=True)
class _PairTable:
    """The candidate set as a view of the score cache: three aligned
    arrays sorted by pair code — ``pairs`` and both endpoints' history
    sizes as last read (``-1`` for a pair not scored yet) — plus
    ``source``, the LSH index whose candidate set it holds, so it can
    follow that index's updates entity by entity
    (``None`` = feed it by set difference), and ``adopted``, the cache's
    :attr:`~repro.core.score_cache.ScoreCache.adopted` count as of the
    last relink that checked it (a relink that finds the count moved
    drops its own space's rows first).

    **Derived state**, never captured: a relink makes a new record rather
    than writing this one, so its transaction holds the old record by
    reference, and a full :meth:`StreamingLinker._restore` starts an
    empty one — a table whose every candidate is new.  A scored pair is
    trusted only while the cache still holds it under both endpoints'
    current history versions
    (:meth:`~repro.core.score_cache.ScoreCache._holds`), so the table
    needs no word of what changed in the cache behind it.
    """

    pairs: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    left_size: np.ndarray = field(default_factory=lambda: np.empty(0))
    right_size: np.ndarray = field(default_factory=lambda: np.empty(0))
    source: object = None
    adopted: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def follow(
        self, appeared: np.ndarray, disappeared: np.ndarray, source: object
    ) -> "_PairTable":
        """The table of the next candidate set (both arguments distinct
        and ascending, ``disappeared`` within the table): the pairs that
        left dropped, the new ones inserted not scored yet."""
        if not len(appeared) and not len(disappeared):
            return replace(self, source=source)
        keep = np.ones(len(self), dtype=bool)
        keep[np.searchsorted(self.pairs, disappeared)] = False
        kept = np.flatnonzero(keep)
        at = np.searchsorted(self.pairs[kept], appeared)
        # One gather per column; the new pairs' slots gather a padding
        # value past the last row, then take their own.
        order, new = np.insert(kept, at, len(self)), at + np.arange(len(appeared))
        columns = []
        for column, fill in (
            (self.pairs, appeared), (self.left_size, -1.0), (self.right_size, -1.0),
        ):
            column = np.append(column, 0).take(order)
            column[new] = fill
            columns.append(column)
        return _PairTable(*columns, source, self.adopted)


@dataclass(frozen=True)
class RelinkStats:
    """What one :meth:`StreamingLinker.relink` reused versus recomputed.

    Attributes
    ----------
    candidate_pairs:
        Size of the candidate set the similarity stage was asked about.
    pairs_rescored:
        Candidates whose raw totals had to be recomputed (cache misses).
    cache_hits:
        Candidates served from the :class:`~repro.core.score_cache.ScoreCache`.
        A zero-delta relink shows ``pairs_rescored == 0`` here.
    dirty_left, dirty_right:
        Histories that grew (or appeared) since the previous relink.
    idf_invalidated:
        Cached pair totals dropped because a shared bin's IDF drifted
        (or the corpus size, hence every IDF on that side, moved).  It
        counts too the rows of this linker's scoring space dropped
        because the cache adopted a full capture from outside since the
        last relink (see :attr:`~repro.core.score_cache.ScoreCache.adopted`):
        such a capture may hold totals from before IDF drift.
    lsh_rebuilt:
        True when the LSH index had to be rebuilt from scratch (first
        relink, or the signature layout changed); False for delta
        ingestion or brute-force candidate generation.
    evicted_left, evicted_right:
        Entities the retention policy retired ahead of this relink (see
        :mod:`repro.core.retention`); their histories, corpus statistics,
        LSH placements and cached pair scores were all dropped.
    """

    candidate_pairs: int
    pairs_rescored: int
    cache_hits: int
    dirty_left: int
    dirty_right: int
    idf_invalidated: int
    lsh_rebuilt: bool
    evicted_left: int = 0
    evicted_right: int = 0


class StreamingLinker:
    """Maintains two growing datasets and relinks on demand.

    An incremental relink is *exactly* equal to a cold one (the parity
    pinned by ``tests/core/test_streaming_incremental.py``): a cached
    pair score is reused only while neither history grew and no shared
    bin's idf moved since the pair was scored.

    ``retention`` bounds memory: a
    :class:`~repro.core.retention.RetentionPolicy` (or the one named by
    the config's ``retention`` / ``retention_window`` fields) retires
    entities that left the live working set ahead of every relink.
    Retirement cascades through every layer — histories, corpus
    statistics and array views (with eager compaction), LSH band
    placements, cached pair scores in *every* cache space (an id observed
    again later restarts at history version 0, so stale rows must not
    linger) — and the relink after a retirement is bit-identical to a
    cold run over the surviving entities
    (``tests/core/test_retention.py``).

    ``score_cache`` attaches an external score cache — typically one
    persisted by :meth:`~repro.core.score_cache.ScoreCache.save` and
    reloaded with :meth:`~repro.core.score_cache.ScoreCache.load` —
    instead of creating a private one.
    """

    def __init__(
        self,
        origin: float,
        config: Optional[LinkageConfig] = None,
        retention: Optional[RetentionPolicy] = None,
        score_cache: Optional[ScoreCache] = None,
        storage: str = "memory",
        store_dir: Optional[object] = None,
        store_chunk_rows: Optional[int] = None,
        store_cache_chunks: object = None,
    ) -> None:
        # ``store_cache_chunks`` is accepted and ignored: the disk flats
        # keep no chunk cache any more, and the end-to-end benchmark spec
        # still passes it.
        del store_cache_chunks
        if storage not in ("memory", "disk"):
            raise ValueError(
                f"storage must be 'memory' or 'disk', got {storage!r}"
            )
        if storage == "disk" and store_dir is None:
            raise ValueError("storage='disk' needs a store_dir")
        if store_chunk_rows is not None and store_chunk_rows <= 0:
            raise ValueError(
                f"store_chunk_rows must be positive, got {store_chunk_rows}"
            )
        #: ``"memory"`` keeps corpus flat views on the heap; ``"disk"``
        #: spills them into a chunked column store under ``store_dir``
        #: (one subdirectory per side) the first time each side's corpus
        #: is built — links, scores and relink counters are bit-identical
        #: either way (``tests/store/``), only the residency changes.
        self.storage = storage
        self._store_dir = store_dir
        self._store_chunk_rows = store_chunk_rows
        self.config = config if config is not None else LinkageConfig()
        self.windowing = Windowing(origin, self.config.similarity.window_width_seconds)
        self._storage_level = self.config.resolved_storage_level()
        self._sides: Dict[str, Dict[str, MobilityHistory]] = {
            "left": {},
            "right": {},
        }
        self._latest = origin
        self._score_cache = (
            score_cache if score_cache is not None else ScoreCache()
        )
        self._retention = (
            retention
            if retention is not None
            else build_retention(
                self.config.retention,
                self.config.retention_window,
            )
        )
        self._corpora: Dict[str, Optional[HistoryCorpus]] = {
            "left": None,
            "right": None,
        }
        self._lsh_index: Optional[LshIndex] = None
        self._pair_table = _PairTable(adopted=self._score_cache.adopted)
        self._last_relink: Optional[RelinkStats] = None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def observe(self, side: str, records: Iterable[Record]) -> int:
        """Ingest records on ``side`` (``"left"`` or ``"right"``).

        Returns the number of records ingested.  Records are grouped by
        entity and appended to the entity's history; within a batch (and
        across batches) records may arrive in any timestamp order — bins
        are pure functions of each record's own window, so out-of-order
        arrivals land exactly where in-order ones would.
        """
        if side not in self._sides:
            raise ValueError(f"side must be left or right, got {side!r}")
        grouped: Dict[str, List[Record]] = {}
        for record in records:
            grouped.setdefault(record.entity_id, []).append(record)
        if not grouped:
            return 0
        # Entity after entity, so the whole batch is converted at once.
        timestamps, lats, lngs = np.array(
            [
                (record.timestamp, record.lat, record.lng)
                for rows in grouped.values()
                for record in rows
            ],
            dtype=np.float64,
        ).T
        ingest_columns(
            self._sides[side],
            list(grouped),
            [len(rows) for rows in grouped.values()],
            timestamps, lats, lngs,
            self.windowing, self._storage_level,
        )
        self._latest = max(self._latest, float(timestamps.max()))
        return len(timestamps)

    def retire(self, side: str, entity_ids: Iterable[str]) -> int:
        """Explicitly retire entities on ``side`` (event-driven deletes).

        The mirror of :meth:`observe` for the serving layer's retire
        events: the named entities' histories are dropped immediately and
        their cached pair scores are swept from *every* cache space (an
        id observed again later restarts at history version 0, exactly
        like a policy-driven retirement).  Corpus statistics and LSH band
        placements are retracted by the next :meth:`relink`, which is
        bit-identical to a cold run over the survivors — including an id
        observed again *before* that relink: the version the corpus
        remembers for a retired id is marked stale here, so its refresh
        reports the new history as dirty, never as the one it replaced,
        and the LSH index re-signatures it from that report.

        Unknown ids raise :class:`KeyError` naming them — a retire event
        for an entity that was never observed (or already retired) is an
        upstream bug worth surfacing, not silently ignoring.  A bare
        string raises :class:`TypeError` (it would retire its characters).
        Returns the number of entities retired.
        """
        if isinstance(entity_ids, str):
            raise TypeError(f"entity_ids must be ids, not the string {entity_ids!r}")
        if side not in self._sides:
            raise ValueError(f"side must be left or right, got {side!r}")
        histories = self._sides[side]
        doomed = {str(entity_id) for entity_id in entity_ids}
        unknown = sorted(doomed - set(histories))
        if unknown:
            raise KeyError(
                f"cannot retire unknown {side} entities: {unknown}"
            )
        for entity_id in doomed:
            del histories[entity_id]
        corpus = self._corpora[side]
        if corpus is not None:
            corpus.mark_stale(doomed)
        named = (doomed, ()) if side == "left" else ((), doomed)
        self._score_cache.invalidate_pairs(*self._score_cache.entities.codes(*named))
        return len(doomed)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def num_left_entities(self) -> int:
        """Entities observed on the left side so far."""
        return len(self._sides["left"])

    @property
    def num_right_entities(self) -> int:
        """Entities observed on the right side so far."""
        return len(self._sides["right"])

    @property
    def last_relink(self) -> Optional[RelinkStats]:
        """Reuse diagnostics of the most recent :meth:`relink` call."""
        return self._last_relink

    @property
    def watermark(self) -> float:
        """Event-time high-water mark: the largest record timestamp
        observed so far (the windowing origin before any record).  A
        restored linker resumes exactly past this point."""
        return self._latest

    @property
    def score_cache(self) -> ScoreCache:
        """The cross-relink score cache (hit/miss counters included)."""
        return self._score_cache

    def total_windows(self) -> int:
        """Leaf windows spanned by the data seen so far."""
        return max(1, self.windowing.index_of(self._latest) + 1)

    def memory_stats(self) -> Dict[str, int]:
        """Footprint counters across the linker's layers (one flat dict,
        keys prefixed ``left_`` / ``right_``) — what the retention
        benchmark samples per relink and
        :func:`~repro.eval.reporting.retention_table` renders.
        """
        index = self._lsh_index
        stats: Dict[str, int] = {
            "score_cache_rows": len(self._score_cache),
            "lsh_entities": 0 if index is None else index.num_entities,
        }
        for side, corpus in self._corpora.items():
            corpus_stats = {} if corpus is None else corpus.memory_stats()
            stats[f"{side}_entities"] = len(self._sides[side])
            for key in ("total_bins", "df_slots", "flat_entries", "flat_live",
                        "flat_resident_bytes"):
                stats[f"{side}_{key}"] = corpus_stats.get(key, 0)
        return stats

    # ------------------------------------------------------------------
    # state: one capture for rollback, snapshots and restart
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """Everything this linker is, as one plain dict of containers,
        arrays and scalars — the one capture :meth:`relink` holds for its
        rollback, :meth:`save` packs into flat arrays and :meth:`_restore`
        loads; the only place this linker's mutable fields are
        enumerated for capture.

        By reference throughout: histories, corpus arrays, the LSH
        index's bucket matrices and the score cache's records (with the
        entity tables that name their codes) are replaced, never
        written, so they are shared, not copied.  A component that does
        not exist yet is captured as ``None``; the pair table is derived
        state and is not captured at all (:meth:`relink` holds it
        itself).
        """
        corpora = {
            side: None if corpus is None else corpus.checkpoint()
            for side, corpus in self._corpora.items()
        }
        index, entities = self._lsh_index, self._score_cache.entities
        return {
            "origin": self.windowing.origin,
            "config": self.config,
            "retention": self._retention,
            "latest": self._latest,
            "sides": _copy_sides(self._sides),
            "corpora": corpora,
            "score_cache": self._score_cache.checkpoint(),
            # The bucket matrices by reference, and which id each row is.
            "lsh_index": index and dict(index.checkpoint(), ids=tuple(entities._ids)),
            "last_relink": self._last_relink,
            # Captures the cache adopted that no relink has checked.
            "adopted": self._score_cache.adopted - self._pair_table.adopted,
        }

    def _restore(self, state: Dict[str, object]) -> None:
        """Become the linker a capture holds — this one rewound after a
        failed relink, or an empty one after a restart (:meth:`restore`
        constructs it from a full capture's origin, config and
        retention, and unpacks the snapshot's flat arrays into the
        histories and corpus captures read here).

        The sides dicts are refilled *in place* (corpora reference them
        as their histories mapping).  A component absent from the
        capture becomes ``None`` (one first built during the failed
        relink rolls back to nothing); a present one is rewound, after
        being created over the refilled histories (and spilled, on a
        ``storage="disk"`` linker) if need be.  The LSH index's matrices
        and the score cache's records are re-coded by this linker's
        entity codes of their ids where those differ
        (:func:`~repro.lsh.index._unpack_index`,
        :meth:`~repro.core.score_cache.ScoreCache.restore`).  No capture
        carries the pair table: the linker starts an empty one, which
        the next relink fills (a failed relink puts back the one it
        held).  The cache restore made here brings back rows that match
        the corpora restored beside them, so it does not count as an
        adoption: the new table is as far behind the cache's
        :attr:`~repro.core.score_cache.ScoreCache.adopted` count as the
        capture was.
        """
        self._latest = state["latest"]
        for side, saved in state["sides"].items():
            histories = self._sides[side]
            histories.clear()
            histories.update(saved)
        for side, saved in state["corpora"].items():
            corpus = self._corpora[side]
            if saved is None:
                corpus = None
            elif corpus is not None:
                corpus.restore(saved)
            else:
                corpus = self._new_corpus(side, saved)
            self._corpora[side] = corpus
        cache = self._score_cache
        adopted = cache.adopted
        cache.restore(state["score_cache"])
        cache.adopted = adopted
        saved, index = state["lsh_index"], self._lsh_index
        if saved is not None:
            index = index or LshIndex(self.config.lsh, saved["spec"])
            index.restore(_unpack_index(saved, cache.entities.encode))
        self._lsh_index = saved and index
        self._pair_table = _PairTable(adopted=adopted - state["adopted"])
        self._last_relink = state["last_relink"]

    def save(self, directory: object) -> object:
        """Write one atomic whole-linker snapshot under ``directory``.

        The snapshot *is* :meth:`checkpoint` — histories, corpus
        statistics and flat views, LSH bucket matrices, score cache,
        retention policy, watermark — with the per-entity objects packed
        into flat arrays at this durable boundary: each side's histories
        as one set of concatenated columns, each corpus' residents
        likewise, the LSH matrices cut to their placed rows beside
        those rows' ids (:func:`~repro.lsh.index._pack_index`), and the
        score cache's records as one set of columns beside the ids they
        reference (:func:`~repro.core.score_cache._pack_cache`).  So the
        payload is a few dozen arrays whatever the entity count, and the
        relink transaction, which captures by reference, never pays for
        packing.  It is written as two
        payloads (linker state, score cache) under the tmp-dir +
        ``os.replace`` protocol of :mod:`repro.store.snapshot`: a crash
        mid-save leaves the previous snapshot intact.  Returns the
        promoted directory.
        """
        state = self.checkpoint()
        cache = _pack_cache(state.pop("score_cache"))
        sides, corpora = state["sides"], state["corpora"]
        state["sides"] = {s: _pack_histories(h) for s, h in sides.items()}
        state["corpora"] = {s: c and _pack_corpus(c) for s, c in corpora.items()}
        state["lsh_index"] = state["lsh_index"] and _pack_index(state["lsh_index"])
        return write_snapshot(
            Path(directory),
            {"state": state, "score_cache": cache},
            watermark=self._latest,
        )

    @classmethod
    def restore(
        cls,
        directory: object,
        *,
        strict: bool = False,
        storage: str = "memory",
        store_dir: Optional[object] = None,
        store_chunk_rows: Optional[int] = None,
        store_cache_chunks: object = None,
    ) -> Optional["StreamingLinker"]:
        """Rebuild a linker from the newest snapshot under ``directory``
        plus a replay of that snapshot's event log.

        The restored linker relinks **bit-identically** to the linker
        that wrote the snapshot — same links, scores, and
        :class:`RelinkStats` counters, under every executor backend
        (pinned by ``tests/store/test_snapshot_restore.py``): it is an
        empty linker put through the :meth:`_restore` a rollback uses,
        after the packed histories and corpus residents are unpacked —
        each history and window directory a copy of its rows, and each
        corpus adopted as captured, without a cold build.  Then every
        batch a long-lived writer appended to the snapshot's log
        (:mod:`repro.store.eventlog`) is replayed in order: its observes
        and retires, and a :meth:`relink` where the writer relinked — so
        the result is the writer's linker after its last durable batch,
        retention evictions and :attr:`last_relink` included.

        Returns ``None`` — a cold start — when no snapshot exists (no
        warning) or when the newest snapshot cannot be trusted: a
        truncated manifest, a payload digest mismatch, a format version
        skew, or nothing but tmp-dir litter from a crashed writer.  Each
        untrustworthy case warns naming the
        :class:`~repro.store.snapshot.SnapshotError` subclass; pass
        ``strict=True`` to raise it instead.  A damaged log costs only
        its untrusted tail: a torn last frame is dropped with a warning,
        and a corrupt or skewed log
        (:class:`~repro.store.eventlog.EventLogCorrupt` /
        :class:`~repro.store.eventlog.EventLogSkew`) warns by name and
        replays its intact prefix — or raises under ``strict=True``.

        ``storage="disk"`` (with ``store_dir``) re-spills the restored
        corpora out of core; snapshots themselves are storage-agnostic.
        ``store_cache_chunks`` is ignored, as by the constructor.
        """
        del store_cache_chunks
        try:
            root = Path(directory)
            state, cache = load_state(root, ("state", "score_cache"))
            entries = read_log(root, newest_ordinal(root), strict)
        except SnapshotMissing:
            return None
        except SnapshotError as exc:
            if strict:
                raise
            warnings.warn(
                f"snapshot restore from {directory} failed "
                f"({type(exc).__name__}: {exc}); falling back to a cold "
                "start",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        linker = cls(
            state["origin"],
            config=state["config"],
            retention=state["retention"],
            storage=storage,
            store_dir=store_dir,
            store_chunk_rows=store_chunk_rows,
        )
        sides = {s: _unpack_histories(p) for s, p in state["sides"].items()}
        corpora = {s: p and _unpack_corpus(p) for s, p in state["corpora"].items()}
        linker._restore(dict(state, sides=sides, corpora=corpora, score_cache=cache))
        for entry in entries:
            linker._replay(entry)
        return linker

    def _replay(self, entry: Dict[str, object]) -> None:
        """Apply one event-log entry (:func:`repro.store.eventlog.batch_entry`)
        as its writer applied it."""
        for kind, side, ids, columns in entry["events"]:
            if kind == "observe":
                self.observe(
                    side, [Record(e, *row) for e, row in zip(ids, columns.T.tolist())]
                )
            else:
                self.retire(side, ids)
        if entry["relinked"]:
            self.relink()

    # ------------------------------------------------------------------
    # incremental helpers
    # ------------------------------------------------------------------
    def _retire(self, side: str) -> Tuple[str, ...]:
        """Apply the retention policy to one side, ahead of a relink.

        Drops the retired histories from the side's mapping (the next
        :meth:`HistoryCorpus.refresh` retracts their statistics as a
        removal delta) and returns the retired ids, sorted.

        The policy's verdict is validated *before* anything is deleted: a
        policy that names an entity the side does not hold, or that would
        empty the side entirely (breaking the :meth:`relink`
        precondition), raises a :class:`ValueError` naming the policy —
        inside the relink transaction, so the rollback leaves
        the linker untouched and the fault is a clean retry-able error
        instead of a half-applied eviction.
        """
        histories = self._sides[side]
        if not histories:
            return ()
        doomed = set(
            self._retention.retire(
                histories, self.windowing.index_of(self._latest)
            )
        )
        policy = type(self._retention).__name__
        unknown = sorted(doomed - set(histories))
        if unknown:
            raise ValueError(
                f"retention policy {policy} retired entities the {side} "
                f"side does not hold: {unknown}"
            )
        if doomed and len(doomed) >= len(histories):
            raise ValueError(
                f"retention policy {policy} would retire every {side} "
                f"entity ({len(histories)} of {len(histories)}); a policy "
                "must always spare at least one per side"
            )
        for entity_id in doomed:
            del histories[entity_id]
        return tuple(sorted(doomed))

    def _refresh_corpus(self, side: str) -> CorpusDelta:
        """Create the side's corpus on first use; fold deltas afterwards.

        Either way returns what changed as a
        :class:`~repro.core.corpus.CorpusDelta` — the cold build is the
        refresh from empty, every entity dirty.
        """
        corpus = self._corpora[side]
        if corpus is None:
            self._corpora[side] = self._new_corpus(side)
            return CorpusDelta(tuple(self._sides[side]))
        return corpus.refresh()

    def _new_corpus(
        self, side: str, saved: Optional[Dict[str, object]] = None
    ) -> HistoryCorpus:
        """The one place a side's corpus is made: over the side's
        histories — cold, or as the ``saved`` capture — and, on a
        ``storage="disk"`` linker, spilled under ``store_dir``."""
        histories = self._sides[side]
        if saved is None:
            corpus = HistoryCorpus(histories, self.config.similarity.spatial_level)
        else:
            corpus = HistoryCorpus._restored(histories, saved)
        if self.storage == "disk":
            corpus.spill(
                Path(self._store_dir) / side,
                chunk_rows=self._store_chunk_rows,
            )
        return corpus

    def _lsh_update(
        self, deltas: Dict[str, CorpusDelta]
    ) -> Tuple[LshIndex, bool]:
        """Bring the persistent LSH index up to date with the histories.

        The index survives across relinks and follows this relink's
        corpus ``deltas`` per side, under the score cache's entity codes:
        it withdraws the evicted entities and re-signatures the dirty
        ones, which is also all the pair table's candidate set has to
        follow.  Only when the growing window span changes the signature
        *length* (and with it the banding) is the index rebuilt wholesale
        over every history.  Returns ``(index, rebuilt)``.
        """
        lsh = self.config.lsh
        if lsh is None:
            # Same contract as the batch LshCandidates stage: naming the
            # missing field beats an AttributeError three frames deeper.
            raise ValueError(
                "candidates='lsh' needs LinkageConfig.lsh to be set"
            )
        spec = lsh.signature_spec(self.total_windows())
        index = self._lsh_index
        rebuilt = index is None or index.spec.length != spec.length
        if rebuilt:
            index = self._lsh_index = LshIndex(lsh, spec)
        else:
            index.update_spec(spec)
        encode = self._score_cache.entities.encode
        for column, side in enumerate(("left", "right")):
            histories, delta = self._sides[side], deltas[side]
            # Retired entities first, so no bucket pairs a survivor with
            # a ghost; then one signature matrix for the changed histories.
            if delta.evicted and not rebuilt:
                index.remove(encode(column, delta.evicted), side)
            placed = tuple(histories) if rebuilt else delta.dirty_entities
            if placed:
                index.add_signatures(
                    encode(column, placed),
                    signature_matrix({e: histories[e] for e in placed}, spec),
                    side,
                )
        return index, rebuilt

    # ------------------------------------------------------------------
    # relink
    # ------------------------------------------------------------------
    def relink(self) -> LinkageReport:
        """Delta relink: candidate selection, scoring, matching and
        thresholding over the current state, reusing every cached pair
        total the deltas since the previous relink left intact.

        The tail of the run is the *same stage pipeline* every linker
        uses (:mod:`repro.pipeline`): streaming-aware candidate and
        scoring stages (persistent LSH index, the pair table — only the
        pairs it cannot trust are re-asked) followed by the shared
        matching and threshold stages, with the delta refresh recorded
        under the canonical ``prepare`` timing key.

        The result is exactly what a cold relink over the same data would
        produce (see the module docstring for the invalidation rules that
        guarantee it).

        The relink is **all-or-nothing**: retirement evictions, corpus
        refreshes, LSH placements, score-cache writes and the pair table
        are rolled back (:meth:`checkpoint` — by reference, never by
        copying the cache or the index) if anything raises mid-relink
        (a worker fault past its retry budget, an injected chaos fault, a
        bug), leaving the linker answering from the previous consistent
        snapshot — bit-identical to never having called :meth:`relink` —
        and the failed call can simply be retried.  Pinned by the chaos
        suite (``tests/chaos/``), failing a relink at every stage.
        """
        if not self._sides["left"] or not self._sides["right"]:
            raise ValueError("both sides need at least one entity before relinking")
        state, table = self.checkpoint(), self._pair_table
        try:
            return self._relink_once()
        except BaseException:
            self._restore(state)
            self._pair_table = table
            raise

    def _relink_once(self) -> LinkageReport:
        """One relink attempt over live state (see :meth:`relink`, which
        wraps this in the checkpoint/rollback transaction)."""
        left_histories = self._sides["left"]
        right_histories = self._sides["right"]

        clock = time.perf_counter()
        cache = self._score_cache
        retired = {side: self._retire(side) for side in ("left", "right")}
        if retired["left"] or retired["right"]:
            # Drop retired entities' rows in *every* cache space, not just
            # this linker's: a retired id observed again later restarts at
            # history version 0, and a stale row under matching versions
            # would otherwise be served as a hit.  Sweeping foreign spaces
            # (e.g. entries loaded from a persisted cache) can only cost
            # misses, never correctness.
            cache.invalidate_pairs(
                *cache.entities.codes(retired["left"], retired["right"])
            )
        deltas = {side: self._refresh_corpus(side) for side in ("left", "right")}
        left_corpus = self._corpora["left"]
        right_corpus = self._corpora["right"]
        assert left_corpus is not None and right_corpus is not None

        # Scoped to this linker's space: in a shared cache, other
        # owners' corpora are untouched by our IDF movement.
        space = score_cache_space(left_corpus, right_corpus, self.config.similarity)
        invalidated = 0
        if cache.adopted != self._pair_table.adopted:
            # A capture restored from outside may hold totals from before
            # IDF drift these corpora have seen: trust none of its rows.
            invalidated = cache.invalidate_pairs(
                *(np.arange(len(ids)) for ids in cache.entities._ids), space=space
            )
            self._pair_table = replace(self._pair_table, adopted=cache.adopted)
        affected = (deltas["left"].idf_affected, deltas["right"].idf_affected)
        if any(affected):
            invalidated += cache.invalidate_pairs(
                *cache.entities.codes(*affected), space=space
            )

        context = LinkageContext(config=self.config)
        context.windowing = self.windowing
        context.total_windows = self.total_windows()
        context.left_histories = left_histories
        context.right_histories = right_histories
        context.left_corpus = left_corpus
        context.right_corpus = right_corpus
        context.score_cache = cache
        context.timings[STAGE_PREPARE] = time.perf_counter() - clock
        context.stage_names.append(STAGE_PREPARE)

        dirty_left = deltas["left"].dirty_entities
        dirty_right = deltas["right"].dirty_entities
        hits_before, misses_before = cache.hits, cache.misses
        pipeline = LinkagePipeline(
            self.config,
            stages=[
                _StreamingCandidates(self, deltas),
                _StreamingScoring(self),
                MatchingStage(self.config),
                ThresholdStage(self.config),
            ],
        )
        report = pipeline.execute(context)

        self._last_relink = RelinkStats(
            candidate_pairs=len(self._pair_table),
            pairs_rescored=cache.misses - misses_before,
            cache_hits=cache.hits - hits_before,
            dirty_left=len(dirty_left),
            dirty_right=len(dirty_right),
            idf_invalidated=invalidated,
            lsh_rebuilt=bool(context.extras.get("lsh_rebuilt", False)),
            evicted_left=len(retired["left"]),
            evicted_right=len(retired["right"]),
        )
        report.extras["relink"] = self._last_relink
        return report


class _StreamingCandidates:
    """Streaming-aware candidate stage: brings the linker's pair table —
    the one maintained candidate set — in line with this round's.

    ``"lsh"`` resolves to the linker's *persistent* index (the corpus
    deltas' dirty entities re-signatured and evicted ones withdrawn, full
    rebuild only when the growing span changes the signature layout),
    whose pair codes are the table's.  While the table holds that index's
    candidate set, only the pairs of the evicted and dirty entities can
    have changed: their pairs in the table are the before, the dirty
    entities' :meth:`~repro.lsh.index.LshIndex.pairs_of` the after.
    Every other name — ``"brute"``, ``"temporal"``, custom registrations
    — dispatches through the :data:`~repro.pipeline.stages.candidate_stages`
    registry exactly as the batch pipeline would, so streaming runs
    honour the config's ``candidates`` choice (a built-in stage's pair
    codes recoded one side at a time); its full candidate set
    (like a rebuilt index's, or one the table is not yet aligned to) is
    the after, the whole table the before.  Either way the table follows
    with one :meth:`_PairTable.follow` of the difference."""

    name = STAGE_CANDIDATES

    def __init__(
        self, linker: StreamingLinker, deltas: Dict[str, CorpusDelta]
    ) -> None:
        self.linker = linker
        self.deltas = deltas

    def run(self, context: LinkageContext) -> None:
        linker = self.linker
        table = linker._pair_table
        entities = linker._score_cache.entities
        resolved = linker.config.resolved_candidates()
        rebuilt, source, after = False, None, None
        if resolved != "lsh":
            after = candidate_stages.get(resolved)(linker.config).generate(context)
            after = distinct(
                after.codes(entities) if isinstance(after, _SortedPairs)
                else entities.pair_codes(list(after))
            )
        else:
            source, rebuilt = linker._lsh_update(self.deltas)
            if table.source is not source:
                after = source.candidate_pairs()
        before = table.pairs
        if after is None:
            left, right = self.deltas["left"], self.deltas["right"]
            before = before[entities.touching(*split_codes(before), *entities.codes(
                left.evicted + left.dirty_entities,
                right.evicted + right.dirty_entities,
            ))]
            after = source.pairs_of(
                *entities.codes(left.dirty_entities, right.dirty_entities)
            )
        table = linker._pair_table = table.follow(
            after[~within(after, before)], before[~within(before, after)], source
        )
        if source is not None:
            source.stats.candidate_pairs = len(table)
        context.candidates = table  # sized: the report reads its length
        context.extras["lsh_rebuilt"] = rebuilt


class _StreamingScoring(ScoringStage):
    """The streaming scoring stage: scores through the linker's pair
    table instead of asking about every candidate.

    Only the pairs the cache cannot be trusted to hold go to
    :meth:`~repro.core.similarity.SimilarityEngine.raw_batch` (cache
    lookup, kernel for the misses, store back), sorted and run through
    the executor exactly as :class:`ScoringStage` runs a whole candidate
    set: a pair new in the table, or one the cache no longer holds under
    both endpoints' current history versions — grown since, or dropped
    or rewound in the cache since the last relink (IDF drift, a
    retirement, anyone's sweep, ``clear()`` or ``restore()``).  Every
    other pair is the cache hit it would have been: it is counted as
    one, and its values are read from the record the trust check
    bisected.  Then the same
    :meth:`~repro.core.similarity.SimilarityEngine.normalize` and
    :meth:`~repro.core.similarity.SimilarityEngine.fold` the batch route
    ends in, over every pair's values; the positive pairs become one
    :class:`~repro.core.matching.EdgeSet` — columns, no ``Edge`` per
    row.
    """

    def __init__(self, linker: StreamingLinker) -> None:
        super().__init__(linker.config)
        self.linker = linker

    def run(self, context: LinkageContext) -> None:
        linker = self.linker
        table = linker._pair_table
        cache = linker._score_cache
        entities = cache.entities
        left_corpus, right_corpus = context.left_corpus, context.right_corpus
        space = score_cache_space(left_corpus, right_corpus, self.config.similarity)
        engine = SimilarityEngine(
            left_corpus, right_corpus, self.config.similarity, score_cache=cache
        )
        context.engine = engine

        lefts, rights = split_codes(table.pairs)
        held, _, at, record = cache._holds(
            space, table.pairs,
            entities.spread(0, left_corpus.history_versions, lefts),
            entities.spread(1, right_corpus.history_versions, rights),
        )
        held = held & (table.left_size >= 0)
        kept, asked = np.flatnonzero(held), np.flatnonzero(~held)
        pairs, lefts, rights = table.pairs[asked], lefts[asked], rights[asked]
        fresh = self._dispatch(context, engine.raw_batch, pairs)
        left_size, right_size = table.left_size.copy(), table.right_size.copy()
        left_size[asked] = entities.spread(0, left_corpus.history_sizes, lefts)
        right_size[asked] = entities.spread(1, right_corpus.history_sizes, rights)
        table = linker._pair_table = replace(
            table, left_size=left_size, right_size=right_size
        )
        # A pair not asked is one lookup_batch would have served: the
        # cache holds it under both endpoints' current versions.
        cache.hits += len(kept)

        # Held pairs read the record the check bisected (raw_batch may
        # have replaced it since), asked ones what raw_batch returned.
        raw, bin_comparisons, common_windows, alibi_bin_pairs = values = [
            np.empty(len(table), column.dtype) for column in fresh
        ]
        held_at = at[kept]
        for value, column, asked_values in zip(values, record.columns[2:], fresh):
            value[kept] = column[held_at]
            value[asked] = asked_values
        scores = engine.normalize(raw, left_size, right_size)
        # Alg. 1's ``if S > 0``.  Pairs are in code order: the edge set
        # sorts its Edge rows only if they are read (the matcher reads the
        # columns).
        context.edges = EdgeSet.from_codes(entities, table.pairs, scores, True)
        engine.fold(len(table), bin_comparisons, common_windows, alibi_bin_pairs)
        context.stats = engine.stats
