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

**Integer keys.**  The cache owns one append-only *entity table* per side
(:class:`EntityTables`): an id gets an ``int32`` code the first time it
is seen, and the codes map back through one id array per side.  Every
scoring space and the streaming linker's pair table share these tables.
A pair is the ``int64`` *pair code* ``left << 32 | right``; every call
(:meth:`ScoreCache.lookup_batch`, :meth:`ScoreCache.store_batch`,
:meth:`ScoreCache.invalidate_pairs`) takes code arrays, and strings stay
at the edges: records in, edge rows out, and the :meth:`ScoreCache.checkpoint`
capture, which renumbers its owner codes into the spaces and the
distinct left and right ids its rows reference, so a snapshot or cache
file never depends on the codes of the process that wrote it and holds
no per-pair Python object.
Codes are never reused, so a table grows with the distinct ids ever seen
on its side, not with the live ones: on the 10k-entity retention bench
(``benchmarks/bench_retention.py``: 50 rounds of 100 fresh entities per
side, 213 per side resident at the end) both tables end at 5,000 ids,
about 1.1 MB with the id strings they keep alive (~110 bytes per id).

Storage is **columnar**: entries live in parallel numpy arrays (versions,
raw totals, counters) behind one ``pair code -> row`` directory per
space.  The cache has one door for scores:
:meth:`~repro.core.similarity.SimilarityEngine.raw_batch`, under either
scoring backend, makes one :meth:`lookup_batch` — one directory pass
builds the row vector, and every version comparison, freshness mask and
value gather is a single vectorized operation — and one
:meth:`store_batch` of what missed.  The arithmetic behind a total is
the kernel's or the scalar oracle's, never the cache's.

Under the directories, three *owner* columns per row (space, left
code, right code; ``-1`` = free) make the rows of some entities one
vectorized pass over the two code columns (so
:meth:`ScoreCache.invalidate_pairs` reads no directory), and make "does
row ``r`` still hold pair ``p`` under these versions?" one gather of the
owner and version columns (:meth:`ScoreCache._holds`, which the
streaming linker's pair table — a view of this cache — asks instead of
being told what changed).  One **undo journal**
(:meth:`ScoreCache._begin` / :meth:`ScoreCache._commit`) gives the
streaming relink its rollback at O(writes): rows are overwritten in
place, the journal keeps, as blocks of arrays, the prior values of every
block written, every block of rows linked or unlinked, and the rows taken
from the free list, and a row freed inside a transaction is recycled only
when it commits.  The O(cache) :meth:`ScoreCache.checkpoint` remains the
one *full* capture, for snapshots and the cache file.

What version keys cannot see is *IDF drift*: a bin's document frequency —
and hence the idf weight inside some *other*, unchanged pair — can move
because a third entity changed.  The cache owner is responsible for that
coupling: :class:`~repro.core.streaming.StreamingLinker` hands
:meth:`invalidate_pairs` the entities its
:class:`~repro.core.corpus.CorpusDelta` names as ``idf_affected``, and a
row so dropped no longer holds its pair, which is all its pair table
needs to see to ask about that pair again.

Doctest — version-keyed hit/miss behaviour over code and version
arrays:

>>> import numpy as np
>>> cache = ScoreCache()
>>> pairs = cache.entities.pair_codes([("u", "v"), ("w", "x")])
>>> cache.store_batch(
...     "space", pairs, np.array([0, 0]), np.array([0, 0]),
...     raw=np.array([1.5, 2.0]), bin_comparisons=np.array([4, 2]),
...     common_windows=np.array([2, 1]), alibi_bin_pairs=np.array([0, 0]))
2
>>> hit, batch = cache.lookup_batch(
...     "space", pairs, np.array([1, 0]), np.array([0, 0]))
>>> hit.tolist(), batch.scores.tolist()  # u's history grew: a miss
([False, True], [0.0, 2.0])
>>> cache.hits, cache.misses, len(cache)  # the stale row is dropped
(1, 1, 1)

IDF-drift invalidation is the owner's job:

>>> cache.invalidate_pairs(*cache.entities.codes({"w"}, ()))
1
>>> len(cache)
0
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from pathlib import Path
from typing import (
    Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..store.snapshot import load_state, write_snapshot
from .history import distinct
from .kernels import BatchScoreResult

__all__ = ["ScoreCache"]

#: Initial row capacity of the columnar store.
_MIN_CAPACITY = 256

#: The right code's bits in a pair code ``left << 32 | right``.
_RIGHT = (1 << 32) - 1


def pair_codes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left << 32 | right``, as int64."""
    return (np.asarray(left, np.int64) << 32) | np.asarray(right, np.int64)


def split_codes(pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The left and right entity codes of each pair code."""
    return pairs >> 32, pairs & _RIGHT


def within(values: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """``values[i] in ascending``, for an ascending array: one bisection."""
    if not len(ascending):
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(ascending, values), len(ascending) - 1)
    return ascending[at] == values


class EntityTables:
    """Both sides' append-only entity tables (side 0 = left, 1 = right):
    an id gets the next ``int32`` code the first time it is encoded, and
    :meth:`ids` maps codes back through one id array per side.  Codes
    are never reused or renumbered."""

    def __init__(self) -> None:
        self._codes: Tuple[Dict[str, int], Dict[str, int]] = ({}, {})
        self._ids = [np.empty(0, dtype=object), np.empty(0, dtype=object)]

    def encode(self, side: int, ids: Iterable[str]) -> np.ndarray:
        """The codes of ``ids`` (int64, in order), coding unseen ids (in
        sorted order)."""
        codes, ids = self._codes[side], list(ids)
        new = sorted(set(ids).difference(codes))
        if new:
            codes.update(zip(new, range(len(codes), len(codes) + len(new))))
            self._ids[side] = np.append(self._ids[side], np.array(new, dtype=object))
        return np.fromiter(map(codes.__getitem__, ids), np.int64, len(ids))

    def codes(
        self, lefts: Iterable[str], rights: Iterable[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The codes of some left ids and of some right ids."""
        return self.encode(0, lefts), self.encode(1, rights)

    def pair_codes(self, pairs: Sequence[Tuple[str, str]]) -> np.ndarray:
        """The pair codes of ``(left id, right id)`` pairs."""
        return pair_codes(*self.codes(*(zip(*pairs) if len(pairs) else ((), ()))))

    def ids(self, side: int, codes: np.ndarray) -> np.ndarray:
        """The ids of ``codes``, as an object array."""
        return self._ids[side][codes]

    def touching(
        self, left: np.ndarray, right: np.ndarray, lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        """``left[i] in lefts or right[i] in rights``, for code columns
        (``-1`` = none): one mark array a side, one gather each."""
        return (
            _member(left, lefts, len(self._ids[0]))
            | _member(right, rights, len(self._ids[1]))
        )

    def spread(self, side: int, read: Callable, codes: np.ndarray) -> np.ndarray:
        """``read`` over the ids of each distinct entity of ``codes``
        once (ascending), spread back to one value per code: a count per
        code of the side instead of a sort."""
        unique = np.flatnonzero(np.bincount(codes))
        values = read(self._ids[side][unique])
        by_code = np.empty(len(self._ids[side]), values.dtype)
        by_code[unique] = values
        return by_code[codes]


class _Journal:
    """What one transaction changed in a :class:`ScoreCache`'s rows, in order:
    ``events`` — ``(linked, rows, owners)`` per block of rows, True =
    linked, False = unlinked (``owners`` being the ``(3, k)`` owner
    columns they held); ``written`` — ``(rows, prior values)`` per block
    of rows written; ``from_free`` — the rows taken from the free list;
    and, as of :meth:`ScoreCache._begin`, the high-water mark and the
    hit/miss counters."""

    __slots__ = ("events", "written", "from_free", "high", "hits", "misses")

    def __init__(self, high: int, hits: int, misses: int) -> None:
        self.events: List[Tuple[bool, np.ndarray, Optional[np.ndarray]]] = []
        self.written: List[Tuple[np.ndarray, List[np.ndarray]]] = []
        self.from_free: List[int] = []
        self.high = high
        self.hits = hits
        self.misses = misses


def _member(column: np.ndarray, codes: np.ndarray, size: int) -> np.ndarray:
    """``column[i] in codes`` for a code column whose free rows hold -1
    (``codes`` below ``size``): one mark array, one gather."""
    mark = np.zeros(size + 1, dtype=bool)
    mark[codes] = True
    return mark[column]


def _renumber(codes: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``codes`` (ascending, all below ``size``)
    and each code's position among them: one mark array, no sort."""
    mark = np.zeros(size, dtype=bool)
    mark[codes] = True
    return np.flatnonzero(mark), np.cumsum(mark)[codes] - 1


def _grown(array: np.ndarray, size: int, fill: int) -> np.ndarray:
    """``array`` with its last axis grown to ``size``, filled with ``fill``."""
    grown = np.full(array.shape[:-1] + (size,), fill, array.dtype)
    grown[..., : array.shape[-1]] = array
    return grown


class ScoreCache:
    """Every cached pair score, over a columnar store: value columns (one
    per ``_COLUMNS`` entry) behind one ``pair code -> row`` directory per
    integer space, the ``(3, rows)`` owner columns ``_owner`` (space, left
    code, right code; ``-1`` = a free row; ``int64``, so a gather through
    them indexes without a conversion copy) up to the high-water mark
    ``_high``, a free list, and columns that grow by doubling into zeros.
    Codes come from :attr:`entities`, which only grow.

    One undo journal makes a transaction cost O(writes): between
    :meth:`_begin` and :meth:`_commit`, rows are still overwritten in
    place — :meth:`_write` journals their prior values — but a row freed
    is recycled only at :meth:`_commit`, so :meth:`_rollback` can replay
    the journal backwards onto exactly the content :meth:`_begin` saw.
    Outside a transaction a freed row is recycled at once.

    Nothing is evicted for space: a
    :class:`~repro.core.streaming.StreamingLinker`'s working set is its
    candidate-pair set, and bounded memory is its retention policy's job
    (:mod:`repro.core.retention` sweeps retired entities' rows from every
    scoring space).
    """

    #: The value columns by name, in order: both endpoints' history
    #: versions (the hit test), then one column per
    #: :class:`~repro.core.kernels.BatchScoreResult` field.
    _COLUMNS: Dict[str, type] = {
        "u_version": np.int64,
        "v_version": np.int64,
        "raw": np.float64,
        "bin_comparisons": np.int64,
        "common_windows": np.int64,
        "alibi_bin_pairs": np.int64,
    }

    def __init__(self) -> None:
        self.entities = EntityTables()
        self._reset()
        # Scoring spaces by integer code, append-only like the entities.
        self._space_codes: Dict[Hashable, int] = {}
        self._spaces: List[Hashable] = []
        #: Number of lookups answered from the cache / recomputed.  A
        #: zero-delta relink shows up as misses staying flat.
        self.hits = 0
        self.misses = 0
        #: Number of full captures :meth:`restore` has adopted: an owner
        #: that sees it move knows rows may be back that its corpora's
        #: IDF has moved past since they were captured.
        self.adopted = 0

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def _reset(self, capacity: int = 0) -> None:
        """Become empty, with zeroed columns of ``capacity`` rows."""
        self._rows: Dict[int, Dict[int, int]] = {}
        self._high = 0
        self._owner = np.full((3, capacity), -1, dtype=np.int64)
        self._free: List[int] = []
        self._journal: Optional[_Journal] = None
        self._columns = [
            np.zeros(capacity, dtype) for dtype in self._COLUMNS.values()
        ]

    def _load(self, owners: np.ndarray, columns: Sequence[np.ndarray]) -> None:
        """Become exactly these ``(3, k)`` owners, numbered in order,
        with these values."""
        self._reset(owners.shape[1])
        for column, values in zip(self._columns, columns):
            column[:] = values
        self._high = owners.shape[1]
        self._attach(np.arange(self._high), owners)

    def _live(self) -> np.ndarray:
        """Every linked row, ascending."""
        return np.flatnonzero(self._owner[1, : self._high] >= 0)

    def _attach(self, rows: np.ndarray, owners: np.ndarray) -> None:
        self._owner[:, rows] = owners
        pairs = pair_codes(owners[1], owners[2])
        for space in set(owners[0].tolist()):
            at = owners[0] == space
            self._rows.setdefault(space, {}).update(
                zip(pairs[at].tolist(), rows[at].tolist())
            )

    def _detach(self, rows: np.ndarray) -> np.ndarray:
        """Unlink the rows' keys; returns the owners they held."""
        owners = self._owner[:, rows]
        pairs = pair_codes(owners[1], owners[2])
        for space in set(owners[0].tolist()):
            directory = self._rows[space]
            deque(map(directory.pop, pairs[owners[0] == space].tolist()), 0)
            if not directory:
                del self._rows[space]
        self._owner[:, rows] = -1
        return owners

    def _find(self, space: int, pairs: np.ndarray) -> np.ndarray:
        """The row of each pair code in ``space``, -1 where absent."""
        get = self._rows.get(space, {}).get
        return np.fromiter(map(get, pairs.tolist(), repeat(-1)), np.int64, len(pairs))

    def _holds(
        self, space: Hashable, rows: np.ndarray, pairs: np.ndarray,
        u_versions: np.ndarray, v_versions: np.ndarray,
    ) -> np.ndarray:
        """``rows[i]`` still holds ``pairs[i]`` in ``space`` under these
        history versions, for rows read earlier (``-1`` = none): what
        :meth:`lookup_batch` would serve as a hit, read as one gather of
        the owner and version columns.  A row freed since, recycled for
        another key, past a :meth:`restore`'s or :meth:`clear`'s new
        high-water mark, or storing other versions does not."""
        if not self._high:
            return np.zeros(len(rows), dtype=bool)
        owner = self._owner.take(rows, axis=1, mode="clip")
        u_version, v_version = self._columns[:2]
        return (
            (rows >= 0) & (rows < self._high)
            & (owner[0] == self._space_codes.get(space, -1))
            & (pair_codes(owner[1], owner[2]) == pairs)
            & (u_version.take(rows, mode="clip") == u_versions)
            & (v_version.take(rows, mode="clip") == v_versions)
        )

    def _link(self, space: int, pairs: np.ndarray) -> np.ndarray:
        """Link each of these distinct, absent pair codes to a free row,
        or to a new one; returns the rows (the caller writes their
        values)."""
        free, count = self._free, len(pairs)
        take = min(count, len(free))
        reused = free[len(free) - take :][::-1]
        del free[len(free) - take :]
        start, self._high = self._high, self._high + count - take
        rows = np.concatenate([
            np.asarray(reused, dtype=np.int64), np.arange(start, self._high)
        ])
        if self._high > self._owner.shape[1]:
            size = max(_MIN_CAPACITY, 2 * self._high)
            self._owner = _grown(self._owner, size, -1)
            self._columns = [_grown(column, size, 0) for column in self._columns]
        self._owner[0, rows] = space
        self._owner[1, rows], self._owner[2, rows] = split_codes(pairs)
        self._rows.setdefault(space, {}).update(zip(pairs.tolist(), rows.tolist()))
        if self._journal is not None:
            self._journal.from_free.extend(reused)
            self._journal.events.append((True, rows, None))
        return rows

    def _unlink(self, rows: np.ndarray) -> None:
        """Unlink these distinct linked rows; they are free now (at
        commit, inside a transaction)."""
        owners = self._detach(rows)
        if self._journal is None:
            self._free.extend(rows.tolist())
        else:
            self._journal.events.append((False, rows, owners))

    def _write(self, rows: np.ndarray, values: Sequence) -> None:
        """Overwrite a block of rows, one value (array or scalar) per
        column."""
        if self._journal is not None:
            prior = [column[rows] for column in self._columns]
            self._journal.written.append((rows, prior))
        for column, value in zip(self._columns, values):
            column[rows] = value

    def _rows_of(
        self, lefts: np.ndarray, rights: np.ndarray, space: Optional[int] = None
    ) -> np.ndarray:
        """The rows (ascending) whose left code is in ``lefts`` or whose
        right code is in ``rights`` — within ``space`` unless ``None``:
        one pass over the code columns."""
        owner = self._owner[:, : self._high]
        hit = self.entities.touching(owner[1], owner[2], lefts, rights)
        if space is not None:
            hit &= owner[0] == space
        return np.flatnonzero(hit)

    def _begin(self) -> _Journal:
        """Open a transaction; rolling back the returned journal undoes
        everything written until :meth:`_commit`."""
        self._journal = _Journal(self._high, self.hits, self.misses)
        return self._journal

    def _commit(self) -> None:
        """Close the transaction, keeping its writes: the rows it freed
        become recyclable."""
        if self._journal is not None:
            for linked, rows, _ in self._journal.events:
                self._free.extend([] if linked else rows.tolist())
            self._journal = None

    def _rollback(self, journal: _Journal) -> None:
        """Undo the transaction: replay its journal backwards."""
        self._journal = None
        for linked, rows, owners in reversed(journal.events):
            if linked:
                self._detach(rows)
            else:
                self._attach(rows, owners)
        for rows, prior in reversed(journal.written):
            for column, values in zip(self._columns, prior):
                column[rows] = values
        self._free.extend(reversed(journal.from_free))
        self._high = journal.high
        self.hits, self.misses = journal.hits, journal.misses


    def _space(self, space: Hashable) -> int:
        """The code of ``space``, coding it if unseen."""
        code = self._space_codes.get(space)
        if code is None:
            code = self._space_codes[space] = len(self._spaces)
            self._spaces.append(space)
        return code

    # ------------------------------------------------------------------
    # lookup / store (vectorized over code and version arrays)
    # ------------------------------------------------------------------
    def _place(self, space: int, pairs: np.ndarray) -> np.ndarray:
        """The rows to write the pairs' values into: the ones they hold,
        overwritten in place, or new ones (one per distinct pair)."""
        rows = self._find(space, pairs)
        missing = rows < 0
        if missing.any():
            new, inverse = np.unique(pairs[missing], return_inverse=True)
            rows[missing] = self._link(space, new)[inverse]
        return rows

    def lookup_batch(
        self,
        space: Hashable,
        pairs: np.ndarray,
        u_versions: np.ndarray,
        v_versions: np.ndarray,
    ) -> Tuple[np.ndarray, BatchScoreResult]:
        """Look pair codes up under the callers' history versions: the
        hit mask, and the cached totals and counters (zeros where
        missed, for the caller to fill and :meth:`store_batch` back).

        One directory pass; the version comparison and the value gathers
        are array operations.  A pair cached under other versions is a
        miss, and its row is dropped (once, however often the batch
        names it); every pair asked counts one hit or one miss.
        """
        n = len(pairs)
        values = BatchScoreResult(np.zeros(n), *np.zeros((3, n), dtype=np.int64))
        code = self._space_codes.get(space)
        if n == 0 or code not in self._rows:
            # Nothing asked, or nothing cached in this space.
            self.misses += n
            return np.zeros(n, dtype=bool), values
        rows = self._find(code, pairs)
        found = rows >= 0
        safe = np.where(found, rows, 0)
        u_version, v_version = self._columns[:2]
        fresh = (
            found
            & (u_version[safe] == u_versions)
            & (v_version[safe] == v_versions)
        )
        stale = rows[found & ~fresh]
        if stale.size:
            # A pair duplicated within the batch is evicted once.
            self._unlink(distinct(stale))
        hit_count = int(np.count_nonzero(fresh))
        self.hits += hit_count
        self.misses += n - hit_count
        fresh_rows = rows[fresh]
        for value, column in zip(values, self._columns[2:]):
            value[fresh] = column[fresh_rows]
        return fresh, values

    def store_batch(
        self,
        space: Hashable,
        pairs: np.ndarray,
        u_versions: np.ndarray,
        v_versions: np.ndarray,
        raw: np.ndarray,
        bin_comparisons: np.ndarray,
        common_windows: np.ndarray,
        alibi_bin_pairs: np.ndarray,
    ) -> int:
        """Memoise a batch of freshly scored pair codes; returns the
        count.

        Row assignment walks the directory once; all column writes are
        vectorized scatters.
        """
        self._write(self._place(self._space(space), pairs), (
            u_versions, v_versions, raw,
            bin_comparisons, common_windows, alibi_bin_pairs,
        ))
        return len(pairs)

    # ------------------------------------------------------------------
    # owner-driven invalidation
    # ------------------------------------------------------------------
    def invalidate_pairs(
        self,
        left_codes: np.ndarray,
        right_codes: np.ndarray,
        space: Optional[Hashable] = None,
    ) -> int:
        """Drop every entry whose left entity code is in ``left_codes``
        or whose right entity code is in ``right_codes`` (codes of
        :attr:`entities`); returns the count.

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

        One vectorized pass over the two code columns; no directory is
        read.
        """
        # An unknown space is -1, which only free rows hold.
        code = None if space is None else self._space_codes.get(space, -1)
        rows = self._rows_of(left_codes, right_codes, code)
        self._unlink(rows)
        return int(rows.size)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        if self._journal is None:
            self._reset()
        else:
            self._unlink(self._live())

    # ------------------------------------------------------------------
    # state: a full capture for snapshots and the cache file, a journal
    # for transactions
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """The cache's whole state as a dict of columns, for
        :meth:`restore`: ``owners``, the live rows' ``(space, left,
        right)`` codes renumbered into ``spaces`` (the scoring spaces
        they reference, a list) and ``left_ids`` / ``right_ids`` (the
        distinct ids they reference, arrays); one array per ``_COLUMNS``
        entry, gathered in the same row order; and the hit/miss
        counters.  No per-pair Python object: pickled, this dict is the
        persisted cache and the cache payload of a linker snapshot.  Row
        order, row numbering and entity codes are allocation detail, not
        state: two caches holding the same pairs and values are the same
        cache.  O(cache); a relink transaction uses :meth:`_begin`
        instead."""
        rows = self._live()
        owner = self._owner[:, rows]
        sizes = (len(self._spaces), *map(len, self.entities._ids))
        (spaces, space_at), (lefts, left_at), (rights, right_at) = map(
            _renumber, owner, sizes
        )
        return {
            "spaces": [self._spaces[code] for code in spaces.tolist()],
            "left_ids": self.entities.ids(0, lefts),
            "right_ids": self.entities.ids(1, rights),
            "owners": np.stack([space_at, left_at, right_at]),
            **{
                name: column[rows]
                for name, column in zip(self._COLUMNS, self._columns)
            },
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore(self, state: Union[Dict[str, object], _Journal]) -> None:
        """Become the cache a :meth:`checkpoint` captured — this one
        rewound (rows stored since gone, rows dropped since back) or a
        fresh one after a restart; the capture is only read, so it
        supports any number of restores, and each counts in
        :attr:`adopted`.  Its spaces and ids are coded into this cache's
        tables, which only grow.  Handed the journal of the open
        transaction instead, undo exactly that transaction's writes."""
        if isinstance(state, _Journal):
            self._rollback(state)
            return
        space, left, right = state["owners"]
        spaces = np.fromiter(
            map(self._space, state["spaces"]), np.int64, len(state["spaces"])
        )
        lefts, rights = self.entities.codes(state["left_ids"], state["right_ids"])
        self._load(
            np.stack([spaces[space], lefts[left], rights[right]]),
            [state[name] for name in self._COLUMNS],
        )
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.adopted += 1

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
