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

The store under the directory is :class:`_Rows`, the keyed-rows
primitive the streaming linker's pair table is built on as well: value
columns behind a ``key -> row`` dict, a ``row -> key`` list, one
**per-entity row index** per side (so :meth:`ScoreCache.invalidate_pairs`
costs O(rows of the named entities), not a directory scan), a free list,
and one **undo journal** (:meth:`ScoreCache._begin` /
:meth:`ScoreCache._commit`) that gives the streaming relink its rollback
at O(writes): rows are overwritten in place, the journal keeps the prior
values of every block written, every link and unlink, and the rows taken
from the free list, and a row freed inside a transaction is recycled
only when it commits.  The O(cache) :meth:`ScoreCache.checkpoint`
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


class _Journal:
    """What one transaction changed in a :class:`_Rows` store, in order:
    ``events`` — ``(linked, row, key)``, True = linked, False = unlinked;
    ``written`` — ``(rows, prior values)`` per block of rows written;
    ``from_free`` — the rows taken from the free list; and, as of
    :meth:`_Rows._begin`, the high-water mark and the owner's
    ``_SCALARS``."""

    __slots__ = ("events", "written", "from_free", "high", "scalars")

    def __init__(self, high: int, scalars: Dict[str, object]) -> None:
        self.events: List[Tuple[bool, int, Hashable]] = []
        self.written: List[Tuple[np.ndarray, List[np.ndarray]]] = []
        self.from_free: List[int] = []
        self.high = high
        self.scalars = scalars


class _Rows:
    """Keyed rows: value columns (one per ``_DTYPES`` entry) behind a
    ``key -> row`` directory, with a ``row -> key`` list (``None`` = free;
    its length is the high-water mark), one entity -> rows index per side
    (keyed by the key's last two items), a free list, and columns that
    grow by doubling into zeros.

    One undo journal makes a transaction cost O(writes): between
    :meth:`_begin` and :meth:`_commit`, rows are still overwritten in
    place — :meth:`_write` journals their prior values — but a row freed
    is recycled only at :meth:`_commit`, so :meth:`_rollback` can replay
    the journal backwards onto exactly the content :meth:`_begin` saw.
    Outside a transaction a freed row is recycled at once."""

    #: One dtype per value column.
    _DTYPES: Tuple[type, ...] = ()
    #: The owner's attributes a rollback puts back.
    _SCALARS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._reset()

    def __len__(self) -> int:
        return len(self._rows)

    def _reset(self, capacity: int = 0) -> None:
        """Become empty, with zeroed columns of ``capacity`` rows."""
        self._rows: Dict[Hashable, int] = {}
        self._keys: List[Optional[Hashable]] = []
        self._by_entity: Tuple[Dict[str, Set[int]], Dict[str, Set[int]]] = ({}, {})
        self._free: List[int] = []
        self._journal: Optional[_Journal] = None
        self._columns = [np.zeros(capacity, dtype) for dtype in self._DTYPES]

    def _load(self, keys: Sequence[Hashable], columns: Sequence[np.ndarray]) -> None:
        """Become exactly these keys, numbered in order, with these values."""
        self._reset(len(keys))
        for column, values in zip(self._columns, columns):
            column[:] = values
        self._keys = [None] * len(keys)
        for row, key in enumerate(keys):
            self._attach(key, row)

    def _attach(self, key: Hashable, row: int) -> None:
        self._rows[key] = row
        self._keys[row] = key
        left, right = self._by_entity
        left.setdefault(key[-2], set()).add(row)
        right.setdefault(key[-1], set()).add(row)

    def _detach(self, key: Hashable) -> int:
        row = self._rows.pop(key)
        self._keys[row] = None
        left, right = self._by_entity
        for by_entity, entity in ((left, key[-2]), (right, key[-1])):
            rows = by_entity[entity]
            rows.discard(row)
            if not rows:
                del by_entity[entity]
        return row

    def _add(self, key: Hashable) -> int:
        """Link ``key`` to a free row, or to a new one; returns the row
        (the caller writes its values)."""
        journal = self._journal
        if self._free:
            row = self._free.pop()
            if journal is not None:
                journal.from_free.append(row)
        else:
            row = len(self._keys)
            if row == len(self._columns[0]):
                for position, column in enumerate(self._columns):
                    grown = np.zeros(max(_MIN_CAPACITY, 2 * row), column.dtype)
                    grown[:row] = column
                    self._columns[position] = grown
            self._keys.append(None)
        self._attach(key, row)
        if journal is not None:
            journal.events.append((True, row, key))
        return row

    def _remove(self, key: Hashable) -> int:
        """Unlink ``key``; returns its row, now free (at commit, inside
        a transaction)."""
        row = self._detach(key)
        if self._journal is None:
            self._free.append(row)
        else:
            self._journal.events.append((False, row, key))
        return row

    def _write(self, rows: np.ndarray, values: Sequence) -> None:
        """Overwrite a block of rows, one value (array or scalar) per
        column."""
        if self._journal is not None:
            prior = [column[rows] for column in self._columns]
            self._journal.written.append((rows, prior))
        for column, value in zip(self._columns, values):
            column[rows] = value

    def _rows_of(self, lefts: Iterable[str], rights: Iterable[str]) -> Set[int]:
        """The rows whose left entity is in ``lefts`` or whose right
        entity is in ``rights``: O(those rows)."""
        found: Set[int] = set()
        for by_entity, entities in zip(self._by_entity, (lefts, rights)):
            for entity in entities:
                found.update(by_entity.get(entity, ()))
        return found

    def _begin(self) -> _Journal:
        """Open a transaction; rolling back the returned journal undoes
        everything written until :meth:`_commit`."""
        self._journal = _Journal(
            len(self._keys), {name: getattr(self, name) for name in self._SCALARS}
        )
        return self._journal

    def _commit(self) -> None:
        """Close the transaction, keeping its writes: the rows it freed
        become recyclable."""
        if self._journal is not None:
            self._free.extend(
                row for linked, row, _ in self._journal.events if not linked
            )
            self._journal = None

    def _rollback(self, journal: _Journal) -> None:
        """Undo the transaction: replay its journal backwards."""
        self._journal = None
        for linked, row, key in reversed(journal.events):
            if linked:
                self._detach(key)
            else:
                self._attach(key, row)
        for rows, prior in reversed(journal.written):
            for column, values in zip(self._columns, prior):
                column[rows] = values
        self._free.extend(reversed(journal.from_free))
        del self._keys[journal.high:]
        for name, value in journal.scalars.items():
            setattr(self, name, value)


class ScoreCache(_Rows):
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

    #: The value columns, in :class:`PairScore` field order: what
    #: :meth:`checkpoint` gathers.
    _DTYPES = (np.int64, np.int64, np.float64, np.int64, np.int64, np.int64)
    _SCALARS = ("hits", "misses", "_mutations")

    def __init__(self) -> None:
        super().__init__()
        self._mutations = 0
        #: Number of lookups answered from the cache / recomputed.  A
        #: zero-delta relink shows up as misses staying flat.
        self.hits = 0
        self.misses = 0

    def _entry(self, key: Key) -> PairScore:
        row = self._rows[key]
        return PairScore(*(column[row].item() for column in self._columns))

    def _place(self, key: Key) -> int:
        """The row to write ``key``'s values into: the one it holds,
        overwritten in place, or a new one."""
        row = self._rows.get(key)
        return self._add(key) if row is None else row

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
        pair = (left_entity, right_entity)
        if not self.lookup_batch(space, [pair], u_version, v_version).hit[0]:
            return None
        return self._entry((space, *pair))

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
        """Memoise one freshly scored pair: :meth:`store_batch`'s row
        assignment and column write for one row."""
        key = (space, left_entity, right_entity)
        self._write(np.array([self._place(key)]), (
            u_version, v_version, raw,
            bin_comparisons, common_windows, alibi_bin_pairs,
        ))
        return self._entry(key)

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
        values = [np.zeros(n, dtype) for dtype in self._DTYPES[2:]]
        if n == 0 or not self._rows:
            # Nothing asked, or nothing cached.
            self.misses += n
            return CacheBatch(np.zeros(n, dtype=bool), *values)
        get = self._rows.get
        rows = np.fromiter(
            (get((space, left, right), -1) for left, right in pairs),
            np.int64,
            count=n,
        )
        found = rows >= 0
        safe = np.where(found, rows, 0)
        u_version, v_version = self._columns[:2]
        fresh = (
            found
            & (u_version[safe] == u_versions)
            & (v_version[safe] == v_versions)
        )
        for position in np.nonzero(found & ~fresh)[0]:
            key = (space, *pairs[position])
            # A pair duplicated within the batch is evicted by its first
            # stale occurrence.
            if key in self._rows:
                self._remove(key)
        hit_count = int(np.count_nonzero(fresh))
        self.hits += hit_count
        self.misses += n - hit_count
        fresh_rows = rows[fresh]
        for value, column in zip(values, self._columns[2:]):
            value[fresh] = column[fresh_rows]
        return CacheBatch(fresh, *values)

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
        self._write(rows, (
            u_versions, v_versions, raw,
            bin_comparisons, common_windows, alibi_bin_pairs,
        ))
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
        per-entity row index, never the whole directory.
        """
        doomed = [
            self._keys[row] for row in self._rows_of(left_entities, right_entities)
        ]
        if space is not None:
            doomed = [key for key in doomed if key[0] == space]
        for key in doomed:
            self._remove(key)
        self._mutations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._mutations += 1
        if self._journal is None:
            self._reset()
        else:
            for key in list(self._rows):
                self._remove(key)

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
            "columns": tuple(column[rows] for column in self._columns),
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore(self, state: Union[Dict[str, object], _Journal]) -> None:
        """Become the cache a :meth:`checkpoint` captured — this one
        rewound (rows stored since gone, rows dropped since back) or a
        fresh one after a restart; the capture is only read, so it
        supports any number of restores.  Handed the journal of the open
        transaction instead, undo exactly that transaction's writes."""
        if isinstance(state, _Journal):
            self._rollback(state)
            return
        self._load(state["keys"], state["columns"])
        self.hits = state["hits"]
        self.misses = state["misses"]
        self._mutations += 1

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
