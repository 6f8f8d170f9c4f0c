"""Cross-relink similarity score cache.

Scoring a candidate pair is the most expensive step of the SLIM pipeline
(gather, pairwise distances, greedy MNN/MFN pairing).  For a *fixed* pair
of histories the expensive part of Eq. 2 is fully determined by

* both entities' time-location bins (distances, greedy selections), and
* the IDF values of those bins (Eq. 3 weights),

while the BM25-style length normalisation ``L(u, E) * L(v, I)`` is a cheap
O(1) factor applied at the end.  :class:`ScoreCache` therefore memoises the
**raw, un-normalised** pair total together with its instrumentation
counters, keyed on ``(scoring space, pair, history versions)``:

* the *scoring space* fingerprints the two corpora
  (:attr:`~repro.core.corpus.HistoryCorpus.cache_token`) and every
  :class:`~repro.core.similarity.SimilarityConfig` knob that affects the
  raw total (spatial level, pairing, MFN, IDF, speed, window width) — so
  one cache can safely serve engines at different tuning levels;
* the *history versions* (:attr:`~repro.core.history.MobilityHistory.version`)
  invalidate an entry automatically the moment either side's history grows.

Storage is **columnar**: entries live in parallel numpy arrays (versions,
raw totals, counters) behind one ``pair -> row`` directory, so the hot
path of a streaming relink — thousands of lookups per
:meth:`~repro.core.similarity.SimilarityEngine.score_batch` block — runs
as :meth:`lookup_batch`: one directory pass builds the row vector, and
every version comparison, freshness mask and value gather is a single
vectorized operation instead of a per-pair Python loop.

Two more structures ride on the directory.  A **per-entity key index**
makes :meth:`ScoreCache.invalidate_pairs` cost O(rows of the named
entities) instead of a directory scan.  And a **write journal**
(:meth:`ScoreCache._begin` / :meth:`ScoreCache._commit`) gives the
streaming relink its rollback at O(writes): inside a transaction no row
is overwritten or recycled — a dropped row is quarantined, a re-stored
key moves to a fresh row — so the journal only has to remember which row
each touched key held.  The O(cache) :meth:`ScoreCache.checkpoint`
remains the one *full* capture, for snapshots and the cache file.

What version keys cannot see is *IDF drift*: a bin's document frequency —
and hence the idf weight inside some *other*, unchanged pair — can move
because a third entity changed.  The cache owner is responsible for that
coupling; :class:`~repro.core.streaming.StreamingLinker` computes the set
of drift-affected entities from :class:`~repro.core.corpus.CorpusDelta`
and calls :meth:`invalidate_pairs`.

Doctest — version-keyed hit/miss behaviour:

>>> cache = ScoreCache()
>>> entry = cache.store("space", "u", "v", 0, 0, raw=1.5,
...                     bin_comparisons=4, common_windows=2, alibi_bin_pairs=0)
>>> cache.lookup("space", "u", "v", 0, 0).raw
1.5
>>> cache.lookup("space", "u", "v", 1, 0) is None  # left history grew
True
>>> cache.hits, cache.misses
(1, 1)

IDF-drift invalidation is the owner's job (stale versions already evicted
the entry above, so re-store first):

>>> entry = cache.store("space", "u", "v", 1, 0, raw=1.4,
...                     bin_comparisons=4, common_windows=2, alibi_bin_pairs=0)
>>> cache.invalidate_pairs({"u"}, set())
1
>>> len(cache)
0

Batch lookups vectorize the same semantics over version *arrays*:

>>> import numpy as np
>>> _ = cache.store_batch(
...     "space", [("u", "v"), ("w", "x")],
...     np.array([1, 0]), np.array([0, 0]),
...     raw=np.array([1.4, 2.0]),
...     bin_comparisons=np.array([4, 2]),
...     common_windows=np.array([2, 1]),
...     alibi_bin_pairs=np.array([0, 0]))
>>> batch = cache.lookup_batch(
...     "space", [("u", "v"), ("w", "x")],
...     np.array([1, 9]), np.array([0, 0]))
>>> batch.hit.tolist(), batch.raw.tolist()
([True, False], [1.4, 0.0])
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..store.snapshot import load_state, write_snapshot

__all__ = ["PairScore", "ScoreCache", "CacheBatch"]

#: Initial row capacity of the columnar store.
_MIN_CAPACITY = 256

#: A directory key: ``(scoring space, left entity, right entity)``.
Key = Tuple[Hashable, str, str]


@dataclass(frozen=True)
class PairScore:
    """One memoised pair: the raw (un-normalised) Eq. 2 total plus the
    per-pair counters :class:`~repro.core.similarity.SimilarityStats`
    tracks, pinned to the history versions it was computed from."""

    u_version: int
    v_version: int
    raw: float
    bin_comparisons: int
    common_windows: int
    alibi_bin_pairs: int


@dataclass(frozen=True)
class CacheBatch:
    """Vectorized result of :meth:`ScoreCache.lookup_batch`.

    ``hit[i]`` is True when pair ``i`` was served from the cache; rows
    with ``hit[i] == False`` carry zeros and the caller fills them (and
    :meth:`ScoreCache.store_batch`-s them back) after re-scoring.
    """

    hit: np.ndarray  # (N,) bool
    raw: np.ndarray  # (N,) float64
    bin_comparisons: np.ndarray  # (N,) int64
    common_windows: np.ndarray  # (N,) int64
    alibi_bin_pairs: np.ndarray  # (N,) int64


class _CacheJournal:
    """What one transaction overwrote in a :class:`ScoreCache`.

    ``prior`` maps every key the transaction inserted or dropped to the
    row it held before (``None`` = absent), recorded on first touch.
    Dropped rows are quarantined in ``dropped`` instead of being
    recycled, so their values survive untouched until the transaction
    ends; ``from_free`` holds the recycled rows handed out."""

    __slots__ = ("prior", "dropped", "from_free", "high", "hits", "misses", "mutations")

    def __init__(self, cache: "ScoreCache") -> None:
        self.prior: Dict[Key, Optional[int]] = {}
        self.dropped: List[int] = []
        self.from_free: List[int] = []
        self.high = cache._high
        self.hits = cache.hits
        self.misses = cache.misses
        self.mutations = cache._mutations


class ScoreCache:
    """Every cached pair score, over a columnar store.

    Nothing is evicted for space: a
    :class:`~repro.core.streaming.StreamingLinker`'s working set is its
    candidate-pair set, and bounded memory is its retention policy's job
    (:mod:`repro.core.retention` sweeps retired entities' rows from every
    scoring space).

    A *resident reader* — one that remembers the rows it has seen instead
    of looking them up again, like the streaming linker's pair table —
    watches ``_mutations``: it counts the changes such a reader cannot
    predict from its own calls.  Rows dropped by :meth:`invalidate_pairs`
    (one per row, so the caller can mirror its own) or by :meth:`clear`,
    and a wholesale :meth:`restore`.  Stale-version drops and plain
    stores do not count: a reader knows its own, and anyone else's can
    only replace a row by what the reader would have computed.
    """

    #: The value columns, by attribute: what :meth:`checkpoint` gathers.
    _VALUE_COLUMNS = (
        "_u_version", "_v_version", "_raw",
        "_bin_comparisons", "_common_windows", "_alibi_bin_pairs",
    )

    def __init__(self) -> None:
        # pair -> row in the columnar arrays.
        self._rows: Dict[Key, int] = {}
        # Keys by left / right entity: invalidate_pairs sweeps the rows
        # of the named entities, not the directory.
        self._by_left: Dict[str, Set[Key]] = {}
        self._by_right: Dict[str, Set[Key]] = {}
        self._free: List[int] = []
        self._high = 0  # rows ever allocated (high-water mark)
        self._u_version = np.empty(0, dtype=np.int64)
        self._v_version = np.empty(0, dtype=np.int64)
        self._raw = np.empty(0, dtype=np.float64)
        self._bin_comparisons = np.empty(0, dtype=np.int64)
        self._common_windows = np.empty(0, dtype=np.int64)
        self._alibi_bin_pairs = np.empty(0, dtype=np.int64)
        self._mutations = 0
        self._journal: Optional[_CacheJournal] = None
        #: Number of lookups answered from the cache / recomputed.  A
        #: zero-delta relink shows up as misses staying flat.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # columnar plumbing
    # ------------------------------------------------------------------
    def _columns(self) -> Tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self._VALUE_COLUMNS)

    def _grow(self, capacity: int) -> None:
        for name in self._VALUE_COLUMNS:
            array = getattr(self, name)
            grown = np.empty(capacity, dtype=array.dtype)
            grown[: len(array)] = array
            setattr(self, name, grown)

    def _link(self, key: Key, row: int) -> None:
        self._rows[key] = row
        self._by_left.setdefault(key[1], set()).add(key)
        self._by_right.setdefault(key[2], set()).add(key)

    def _unlink(self, key: Key) -> int:
        row = self._rows.pop(key)
        for by_entity, entity in ((self._by_left, key[1]), (self._by_right, key[2])):
            keys = by_entity[entity]
            keys.discard(key)
            if not keys:
                del by_entity[entity]
        return row

    def _drop(self, key: Key) -> None:
        """Remove a key; its row is recycled — after the transaction, if
        one is open, so the journal can still point at it."""
        row = self._unlink(key)
        journal = self._journal
        if journal is None:
            self._free.append(row)
        else:
            journal.prior.setdefault(key, row)
            journal.dropped.append(row)

    def _place(self, key: Key) -> int:
        """The row to write ``key``'s values into (the caller fills it).
        Inside a transaction an existing row is never overwritten: the
        key moves to a fresh one."""
        row = self._rows.get(key)
        journal = self._journal
        if row is not None:
            if journal is None:
                return row
            self._drop(key)
        if self._free:
            row = self._free.pop()
            if journal is not None:
                journal.from_free.append(row)
        else:
            row = self._high
            if row >= len(self._raw):
                self._grow(max(_MIN_CAPACITY, 2 * len(self._raw)))
            self._high += 1
        if journal is not None:
            journal.prior.setdefault(key, None)
        self._link(key, row)
        return row

    def _entry(self, row: int) -> PairScore:
        return PairScore(
            u_version=int(self._u_version[row]),
            v_version=int(self._v_version[row]),
            raw=float(self._raw[row]),
            bin_comparisons=int(self._bin_comparisons[row]),
            common_windows=int(self._common_windows[row]),
            alibi_bin_pairs=int(self._alibi_bin_pairs[row]),
        )

    # ------------------------------------------------------------------
    # lookup / store (per pair)
    # ------------------------------------------------------------------
    def lookup(
        self,
        space: Hashable,
        left_entity: str,
        right_entity: str,
        u_version: int,
        v_version: int,
    ) -> Optional[PairScore]:
        """The cached entry for a pair, or ``None`` on miss.

        An entry computed from older history versions is dropped and
        reported as a miss (the caller will re-score and re-store).
        """
        key = (space, left_entity, right_entity)
        row = self._rows.get(key)
        if row is None:
            self.misses += 1
            return None
        if (
            self._u_version[row] != u_version
            or self._v_version[row] != v_version
        ):
            self._drop(key)
            self.misses += 1
            return None
        self.hits += 1
        return self._entry(row)

    def store(
        self,
        space: Hashable,
        left_entity: str,
        right_entity: str,
        u_version: int,
        v_version: int,
        raw: float,
        bin_comparisons: int,
        common_windows: int,
        alibi_bin_pairs: int,
    ) -> PairScore:
        """Memoise one freshly scored pair."""
        row = self._place((space, left_entity, right_entity))
        self._u_version[row] = u_version
        self._v_version[row] = v_version
        self._raw[row] = raw
        self._bin_comparisons[row] = bin_comparisons
        self._common_windows[row] = common_windows
        self._alibi_bin_pairs[row] = alibi_bin_pairs
        return self._entry(row)

    # ------------------------------------------------------------------
    # lookup / store (vectorized over version arrays)
    # ------------------------------------------------------------------
    def lookup_batch(
        self,
        space: Hashable,
        pairs: Sequence[Tuple[str, str]],
        u_versions: np.ndarray,
        v_versions: np.ndarray,
    ) -> CacheBatch:
        """Batch lookup: one directory pass, vectorized version checks.

        Semantically ``[lookup(space, l, r, u, v) for ...]`` — identical
        hit/miss accounting, identical stale-entry eviction — but the
        version comparison and the value gathers run as numpy array
        operations keyed on the callers' version arrays, which is what
        keeps the streaming relink's cache-hit path off the Python
        interpreter (the ROADMAP's ~3x brute-force-delta ceiling).
        """
        n = len(pairs)
        hit = np.zeros(n, dtype=bool)
        raw = np.zeros(n, dtype=np.float64)
        bin_comparisons = np.zeros(n, dtype=np.int64)
        common_windows = np.zeros(n, dtype=np.int64)
        alibi_bin_pairs = np.zeros(n, dtype=np.int64)
        if n == 0 or not self._rows:
            # Nothing asked, or nothing cached (the columnar arrays may
            # not exist yet).
            self.misses += n
            return CacheBatch(
                hit, raw, bin_comparisons, common_windows, alibi_bin_pairs
            )
        get = self._rows.get
        rows = np.fromiter(
            (get((space, left, right), -1) for left, right in pairs),
            np.int64,
            count=n,
        )
        found = rows >= 0
        safe = np.where(found, rows, 0)
        fresh = (
            found
            & (self._u_version[safe] == u_versions)
            & (self._v_version[safe] == v_versions)
        )
        for position in np.nonzero(found & ~fresh)[0]:
            left, right = pairs[position]
            # A pair duplicated within the batch is evicted by its first
            # stale occurrence.
            if (space, left, right) in self._rows:
                self._drop((space, left, right))
        hit_count = int(np.count_nonzero(fresh))
        self.hits += hit_count
        self.misses += n - hit_count
        fresh_rows = rows[fresh]
        hit[:] = fresh
        raw[fresh] = self._raw[fresh_rows]
        bin_comparisons[fresh] = self._bin_comparisons[fresh_rows]
        common_windows[fresh] = self._common_windows[fresh_rows]
        alibi_bin_pairs[fresh] = self._alibi_bin_pairs[fresh_rows]
        return CacheBatch(
            hit, raw, bin_comparisons, common_windows, alibi_bin_pairs
        )

    def store_batch(
        self,
        space: Hashable,
        pairs: Sequence[Tuple[str, str]],
        u_versions: np.ndarray,
        v_versions: np.ndarray,
        raw: np.ndarray,
        bin_comparisons: np.ndarray,
        common_windows: np.ndarray,
        alibi_bin_pairs: np.ndarray,
    ) -> int:
        """Memoise a batch of freshly scored pairs; returns the count.

        Row assignment walks the directory once; all column writes are
        vectorized scatters.
        """
        n = len(pairs)
        if n == 0:
            return 0
        place = self._place
        rows = np.fromiter(
            (place((space, left, right)) for left, right in pairs),
            np.int64,
            count=n,
        )
        self._u_version[rows] = u_versions
        self._v_version[rows] = v_versions
        self._raw[rows] = raw
        self._bin_comparisons[rows] = bin_comparisons
        self._common_windows[rows] = common_windows
        self._alibi_bin_pairs[rows] = alibi_bin_pairs
        return n

    # ------------------------------------------------------------------
    # owner-driven invalidation
    # ------------------------------------------------------------------
    def invalidate_pairs(
        self,
        left_entities: Iterable[str],
        right_entities: Iterable[str],
        space: Optional[Hashable] = None,
    ) -> int:
        """Drop every entry whose left entity is in ``left_entities`` or
        whose right entity is in ``right_entities``; returns the count.

        This is the IDF-drift hook: history versions catch a pair's *own*
        changes, but a pair must also be re-scored when a shared bin's
        document frequency moved (see :mod:`repro.core.corpus`).

        ``space`` scopes the sweep to one scoring space (see
        :func:`~repro.core.similarity.score_cache_space`): in a cache
        shared between owners — a streaming linker and tuning sweeps,
        say — entity ids recur across spaces, and one owner's IDF drift
        says nothing about another's corpora.  ``None`` sweeps them all —
        which is what *entity retirement* requires
        (:mod:`repro.core.retention`): a retired id observed again later
        restarts at history version 0, so a stale row under matching
        versions anywhere — including entries reloaded via
        :meth:`save`/:meth:`load` — would be served as a hit.

        Costs O(rows of the named entities): the sweep reads the
        per-entity key index, never the whole directory.
        """
        doomed: Set[Key] = set()
        for by_entity, entities in (
            (self._by_left, left_entities),
            (self._by_right, right_entities),
        ):
            for entity in entities:
                doomed.update(by_entity.get(entity, ()))
        if space is not None:
            doomed = {key for key in doomed if key[0] == space}
        for key in doomed:
            self._drop(key)
        self._mutations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._mutations += 1
        if self._journal is not None:
            for key in list(self._rows):
                self._drop(key)
            return
        self._rows.clear()
        self._by_left.clear()
        self._by_right.clear()
        self._free.clear()
        self._high = 0

    # ------------------------------------------------------------------
    # state: a full capture for snapshots and the cache file, a journal
    # for transactions
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """The cache's whole state as a plain dict, for :meth:`restore`:
        the live pairs, their column values gathered in the same order,
        and the hit/miss counters — the same dict pickled is the
        persisted cache and the cache payload of a linker snapshot.  Key
        order and row numbering are allocation detail, not state: two
        caches holding the same pairs and values are the same cache.
        O(cache); a relink transaction uses :meth:`_begin` instead."""
        rows = np.fromiter(self._rows.values(), np.int64, count=len(self._rows))
        return {
            "keys": list(self._rows),
            "columns": tuple(column[rows] for column in self._columns()),
            "hits": self.hits,
            "misses": self.misses,
        }

    def _begin(self) -> _CacheJournal:
        """Open a transaction: from here until :meth:`_commit`, every
        key inserted or dropped is journaled on first touch and no row
        is overwritten or recycled — O(writes), where :meth:`checkpoint`
        is O(cache).  :meth:`restore` on the returned journal undoes
        them."""
        self._journal = _CacheJournal(self)
        return self._journal

    def _commit(self) -> None:
        """Close the transaction, keeping its writes: the rows it
        dropped become recyclable."""
        if self._journal is not None:
            self._free.extend(self._journal.dropped)
            self._journal = None

    def restore(self, state: Union[Dict[str, object], _CacheJournal]) -> None:
        """Become the cache a :meth:`checkpoint` captured — this one
        rewound (rows stored since gone, rows dropped since back) or a
        fresh one after a restart; the capture is only read, so it
        supports any number of restores.  Handed the journal of the open
        transaction instead, undo exactly that transaction's writes.

        Captures written while the cache had an LRU cap also carry a
        ``"cap"`` entry and list their keys in LRU order; both are
        ignored."""
        self._journal = None
        if isinstance(state, _CacheJournal):
            self._rollback(state)
            return
        keys = state["keys"]
        count = len(keys)
        if count > len(self._raw):
            self._grow(max(_MIN_CAPACITY, count))
        for column, values in zip(self._columns(), state["columns"]):
            column[:count] = values
        self._rows = {}
        self._by_left, self._by_right = {}, {}
        for row, key in enumerate(keys):
            self._link(key, row)
        self._free = []
        self._high = count
        self.hits = state["hits"]
        self.misses = state["misses"]
        self._mutations += 1

    def _rollback(self, journal: _CacheJournal) -> None:
        """Undo a transaction.  Quarantine kept every pre-transaction
        row's values in place, so re-pointing the journaled keys
        restores the content."""
        for key, row in journal.prior.items():
            if key in self._rows:
                self._unlink(key)
            if row is not None:
                self._link(key, row)
        self._free.extend(reversed(journal.from_free))
        self._high = journal.high
        self.hits, self.misses = journal.hits, journal.misses
        self._mutations = journal.mutations

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the cache under ``path``: a snapshot root
        (:mod:`repro.store.snapshot`) whose one payload is
        :meth:`checkpoint`.  Returns ``path``.

        The snapshot layer makes it durable and checkable — a truncated,
        foreign or incompatible cache fails :meth:`load` by name, before
        anything is unpickled; a crash mid-save leaves the previous
        snapshot intact.  The payload is a pickle (scoring spaces are
        arbitrary hashables), so the digest detects *corruption*, not
        *malice* — only load caches you produced or trust.

        Cross-process reuse additionally needs *stable scoring spaces*:
        the pipeline keys its corpora by
        :func:`~repro.core.corpus.content_fingerprint` whenever a cache is
        attached, so a later process linking the same data lands in the
        same space and hits.

        A plain file at ``path`` (a pre-snapshot cache) is replaced.
        """
        root = Path(path)
        if root.is_file():
            root.unlink()
        write_snapshot(root, {"score_cache": self.checkpoint()})
        return root

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScoreCache":
        """Rebuild a cache persisted by :meth:`save` (or carried inside
        a whole-linker snapshot); raises the
        :class:`~repro.store.snapshot.SnapshotError` subclass naming
        what is wrong — missing, truncated, digest mismatch, format skew
        (single-file caches included) — before anything is unpickled."""
        (state,) = load_state(Path(path), ("score_cache",))
        cache = cls()
        cache.restore(state)
        return cache
