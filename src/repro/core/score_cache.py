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
at the edges: records in, edge rows out, and the durable layout
(:func:`_pack_cache`), which renumbers its pairs into the spaces and the
distinct left and right ids its rows reference, so a snapshot or cache
file never depends on the codes of the process that wrote it and holds
no per-pair Python object.
Codes are never reused, so a table grows with the distinct ids ever seen
on its side, not with the live ones: on the 10k-entity retention bench
(``benchmarks/bench_retention.py``: 50 rounds of 100 fresh entities per
side, 213 per side resident at the end) both tables end at 5,000 ids,
about 1.1 MB with the id strings they keep alive (~110 bytes per id).

Storage is **one read-only record per scoring space**: the space's pair
codes, strictly ascending, and one value column per ``_COLUMNS`` entry
(versions, raw total, counters) aligned with them.  A write — a store,
the stale rows a lookup drops, an invalidation, a clear — replaces a
record and never writes into one, so it copies its space's columns, and
a :meth:`ScoreCache.checkpoint` holds the records by reference: O(spaces)
to take, and the whole of a relink's rollback.  The cache has one door
for scores: :meth:`~repro.core.similarity.SimilarityEngine.raw_batch`,
under either scoring backend, makes one :meth:`lookup_batch` — one
bisection into the space's pair codes, and every version comparison,
freshness mask and value gather is a single vectorized operation — and
one :meth:`store_batch` of what missed.  The arithmetic behind a total
is the kernel's or the scalar oracle's, never the cache's.  The
streaming linker's pair table, a view of this cache, asks the same
bisection whether its pairs are still held (:meth:`ScoreCache._holds`)
instead of being told what changed.

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

IDF-drift invalidation is the owner's job; a capture taken before it
still holds what it held:

>>> capture = cache.checkpoint()
>>> cache.invalidate_pairs(*cache.entities.codes({"w"}, ()))
1
>>> len(cache)
0
>>> cache.restore(capture)
>>> len(cache)
1
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, NamedTuple, Optional,
    Sequence, Tuple, Union,
)

import numpy as np

from ..store.snapshot import load_state, write_snapshot
from .kernels import BatchScoreResult

__all__ = ["ScoreCache"]

#: The right code's bits in a pair code ``left << 32 | right``.
_RIGHT = (1 << 32) - 1

#: The value columns by name, in order: both endpoints' history versions
#: (the hit test), then one column per
#: :class:`~repro.core.kernels.BatchScoreResult` field.
_COLUMNS: Dict[str, type] = {
    "u_version": np.int64,
    "v_version": np.int64,
    "raw": np.float64,
    "bin_comparisons": np.int64,
    "common_windows": np.int64,
    "alibi_bin_pairs": np.int64,
}


def pair_codes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left << 32 | right``, as int64."""
    return (np.asarray(left, np.int64) << 32) | np.asarray(right, np.int64)


def split_codes(pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The left and right entity codes of each pair code."""
    return pairs >> 32, pairs & _RIGHT


def locate(ascending: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each value is in an ascending array, or would be inserted,
    and whether it is there: one bisection."""
    at = np.searchsorted(ascending, values)
    if not len(ascending):
        return at, np.zeros(len(values), dtype=bool)
    return at, ascending[np.minimum(at, len(ascending) - 1)] == values


def within(values: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """``values[i] in ascending``, for an ascending array: one bisection."""
    return locate(ascending, values)[1]


class EntityTables:
    """Both sides' append-only entity tables (side 0 = left, 1 = right):
    an id gets the next ``int32`` code the first time it is encoded, and
    :meth:`ids` maps codes back through one id array per side.  Codes
    are never reused or renumbered, and a side's id array is replaced,
    never written, as it grows."""

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

    def extends(self, ids: Sequence[np.ndarray]) -> bool:
        """Each side's table begins with that side's array of ``ids`` (a
        capture of these tables, or of ones they grew from): a code
        means here what it meant there."""
        return all(
            len(theirs) <= len(mine) and bool((mine[: len(theirs)] == theirs).all())
            for mine, theirs in zip(self._ids, ids)
        )

    def touching(
        self, left: np.ndarray, right: np.ndarray, lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        """``left[i] in lefts or right[i] in rights``, for code columns:
        one mark array a side, one gather each."""
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


def _member(column: np.ndarray, codes: np.ndarray, size: int) -> np.ndarray:
    """``column[i] in codes`` for a code column (``codes`` below
    ``size``): one mark array, one gather."""
    mark = np.zeros(size, dtype=bool)
    mark[codes] = True
    return mark[column]


def _renumber(codes: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``codes`` (ascending, all below ``size``)
    and each code's position among them: one mark array, no sort."""
    mark = np.zeros(size, dtype=bool)
    mark[codes] = True
    return np.flatnonzero(mark), np.cumsum(mark)[codes] - 1


class _Record(NamedTuple):
    """One scoring space's rows, read-only: its pair codes, strictly
    ascending, and one value column per ``_COLUMNS`` entry aligned with
    them.  A write makes a new record."""

    pairs: np.ndarray
    columns: Tuple[np.ndarray, ...]


_EMPTY = _Record(
    np.empty(0, dtype=np.int64),
    tuple(np.empty(0, dtype) for dtype in _COLUMNS.values()),
)


def _record(pairs: np.ndarray, columns: Sequence[np.ndarray]) -> _Record:
    """A record of these fresh arrays, made read-only."""
    for array in (pairs, *columns):
        array.flags.writeable = False
    return _Record(pairs, tuple(columns))


def _joined(arrays: Sequence[np.ndarray], dtype: type) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype), *arrays])


def _pack_cache(capture: _Capture) -> Dict[str, object]:
    """A :meth:`ScoreCache.checkpoint` as a snapshot or cache file holds
    it: ``spaces`` (a list), ``left_ids`` / ``right_ids`` (the distinct
    ids the rows reference, arrays), ``owners`` (each row's ``(space,
    left, right)`` as indices into those three, a ``(3, rows)`` array),
    one array per ``_COLUMNS`` entry in the same row order, and the
    hit/miss counters.  A few arrays whatever the row count, and no code
    of the process that wrote it: row order and entity codes are
    allocation detail, not state."""
    records = list(capture.records.values())
    pairs = _joined([record.pairs for record in records], np.int64)
    (lefts, left_at), (rights, right_at) = (
        _renumber(codes, len(ids))
        for codes, ids in zip(split_codes(pairs), capture.ids)
    )
    spaces = np.repeat(np.arange(len(records)), [len(r.pairs) for r in records])
    return {
        "spaces": list(capture.records),
        "left_ids": capture.ids[0][lefts],
        "right_ids": capture.ids[1][rights],
        "owners": np.stack([spaces, left_at, right_at]),
        **{
            name: _joined([record.columns[k] for record in records], dtype)
            for k, (name, dtype) in enumerate(_COLUMNS.items())
        },
        "hits": capture["hits"],
        "misses": capture["misses"],
    }


def _unpack_cache(
    state: Mapping, encode: Callable[[int, np.ndarray], np.ndarray]
) -> Dict[Hashable, _Record]:
    """The records of a cache capture — packed or not — with their pairs
    re-coded by ``encode(side, ids)``: a fresh numbering after a
    restart, or another cache's."""
    space, left, right = state["owners"]
    lefts, rights = encode(0, state["left_ids"]), encode(1, state["right_ids"])
    pairs = pair_codes(lefts[left], rights[right])
    records = {}
    for code, name in enumerate(state["spaces"]):
        rows = np.flatnonzero(space == code)
        if len(rows):
            rows = rows[np.argsort(pairs[rows])]
            records[name] = _record(pairs[rows], [
                np.asarray(state[column], dtype)[rows]
                for column, dtype in _COLUMNS.items()
            ])
    return records


class _Capture(Mapping):
    """What :meth:`ScoreCache.checkpoint` returns: ``records`` (space ->
    record) and ``ids`` (both entity tables' id arrays), by reference,
    and the hit/miss counters.  Read as a mapping it is the durable
    layout of :func:`_pack_cache`, cut on the first read of any other
    key; pickled, it is that plain dict."""

    def __init__(
        self, records: Dict[Hashable, _Record], ids: Tuple[np.ndarray, ...],
        hits: int, misses: int,
    ) -> None:
        self.records, self.ids = records, ids
        self._counters = {"hits": hits, "misses": misses}
        self._layout: Dict[str, object] = {}

    def _packed(self) -> Dict[str, object]:
        if not self._layout:
            self._layout = _pack_cache(self)
        return self._layout

    def __getitem__(self, key: str) -> object:
        if key in self._counters:
            return self._counters[key]
        return self._packed()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._packed())

    def __len__(self) -> int:
        return len(self._packed())

    def __reduce__(self) -> Tuple[type, Tuple[Dict[str, object]]]:
        return dict, (self._packed(),)


class ScoreCache:
    """Every cached pair score: one read-only record per scoring space
    (``_records``; see the module docstring), replaced by every write.
    Codes come from :attr:`entities`, which only grow.

    Nothing is evicted for space: a
    :class:`~repro.core.streaming.StreamingLinker`'s working set is its
    candidate-pair set, and bounded memory is its retention policy's job
    (:mod:`repro.core.retention` sweeps retired entities' rows from every
    scoring space).
    """

    _COLUMNS = _COLUMNS

    def __init__(self) -> None:
        self.entities = EntityTables()
        #: The record of each scoring space that holds rows.
        self._records: Dict[Hashable, _Record] = {}
        #: Number of lookups answered from the cache / recomputed.  A
        #: zero-delta relink shows up as misses staying flat.
        self.hits = 0
        self.misses = 0
        #: Number of captures :meth:`restore` has adopted: an owner that
        #: sees it move knows rows may be back that its corpora's IDF has
        #: moved past since they were captured.
        self.adopted = 0

    def __len__(self) -> int:
        return sum(len(record.pairs) for record in self._records.values())

    def _replace(
        self, space: Hashable, pairs: np.ndarray, columns: Sequence[np.ndarray]
    ) -> None:
        """The one write: ``space``'s record becomes these fresh arrays
        (no record, when there are no pairs)."""
        if len(pairs):
            self._records[space] = _record(pairs, columns)
        else:
            self._records.pop(space, None)

    def _drop(self, space: Hashable, record: _Record, gone: np.ndarray) -> None:
        """Replace ``space``'s ``record`` by one without the rows ``gone``
        marks."""
        keep = ~gone
        self._replace(space, record.pairs[keep], [c[keep] for c in record.columns])

    def _holds(
        self, space: Hashable, pairs: np.ndarray,
        u_versions: np.ndarray, v_versions: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, _Record]:
        """Which pair codes ``space`` holds under these history versions
        — what :meth:`lookup_batch` would serve as hits — and which it
        holds under other versions (stale), with each pair's position in
        the space's record and that record: one bisection and two
        version gathers, nothing written.  The record is never written,
        so its values at those positions stay readable whatever later
        writes replace it with."""
        record = self._records.get(space, _EMPTY)
        if not len(record.pairs):
            missed = np.zeros(len(pairs), dtype=bool)
            return missed, missed, np.zeros(len(pairs), dtype=np.int64), record
        # Clipped: a pair past the last one is not found, whatever it reads.
        at = np.minimum(np.searchsorted(record.pairs, pairs), len(record.pairs) - 1)
        found = record.pairs[at] == pairs
        u_version, v_version = record.columns[:2]
        held = found & (u_version[at] == u_versions) & (v_version[at] == v_versions)
        return held, found & ~held, at, record

    # ------------------------------------------------------------------
    # lookup / store (vectorized over code and version arrays)
    # ------------------------------------------------------------------
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

        One bisection (:meth:`_holds`); the value gathers are array
        operations.  A pair cached under other versions is a miss, and
        its row is dropped (once, however often the batch names it);
        every pair asked counts one hit or one miss.
        """
        n = len(pairs)
        values = BatchScoreResult(np.zeros(n), *np.zeros((3, n), dtype=np.int64))
        held, stale, at, record = self._holds(space, pairs, u_versions, v_versions)
        if stale.any():
            gone = np.zeros(len(record.pairs), dtype=bool)
            gone[at[stale]] = True
            self._drop(space, record, gone)
        hit_count = int(np.count_nonzero(held))
        self.hits += hit_count
        self.misses += n - hit_count
        held_at = at[held]
        for value, column in zip(values, record.columns[2:]):
            value[held] = column[held_at]
        return held, values

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
        """Memoise a batch of freshly scored pair codes (a pair named
        twice keeps its last values); returns the count.

        One bisection into the space's record and one copy of each of
        its columns, with the pairs it held overwritten and the new ones
        inserted in order.
        """
        count = len(pairs)
        if not count:
            return 0
        order = np.argsort(pairs, kind="stable")
        ordered = pairs[order]
        last = np.append(ordered[1:] != ordered[:-1], True)
        order = order[last]
        incoming = [ordered[last]] + [
            np.asarray(values, dtype)[order]
            for values, dtype in zip(
                (u_versions, v_versions, raw,
                 bin_comparisons, common_windows, alibi_bin_pairs),
                _COLUMNS.values(),
            )
        ]
        old = self._records.get(space, _EMPTY)
        at, found = locate(old.pairs, incoming[0])
        new = ~found
        at += np.cumsum(new) - new  # each pair's place in the new record
        kept = np.ones(len(old.pairs) + int(np.count_nonzero(new)), dtype=bool)
        kept[at[new]] = False
        merged = []
        for column, values in zip((old.pairs, *old.columns), incoming):
            out = np.empty(len(kept), column.dtype)
            out[kept] = column
            out[at] = values
            merged.append(out)
        self._replace(space, merged[0], merged[1:])
        return count

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

        One vectorized pass over each swept record's pair codes.
        """
        count = 0
        for name in list(self._records) if space is None else [space]:
            record = self._records.get(name, _EMPTY)
            gone = self.entities.touching(
                *split_codes(record.pairs), left_codes, right_codes
            )
            if gone.any():
                self._drop(name, record, gone)
                count += int(np.count_nonzero(gone))
        return count

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._records = {}

    # ------------------------------------------------------------------
    # state: captured by reference, packed at the durable boundary
    # ------------------------------------------------------------------
    def checkpoint(self) -> Mapping:
        """The cache's whole state, for :meth:`restore`: the records and
        both entity tables' id arrays, by reference — records are
        replaced, never written, and an id array only grows by
        replacement — and the hit/miss counters.  O(spaces): this is the
        capture a relink's rollback holds.  Read as a mapping (or
        pickled) it is the durable layout a snapshot and the cache file
        hold (:func:`_pack_cache`)."""
        return _Capture(
            dict(self._records), tuple(self.entities._ids), self.hits, self.misses
        )

    def restore(self, state: Mapping) -> None:
        """Become the cache a :meth:`checkpoint` captured — this one
        rewound (rows stored since gone, rows dropped since back), or
        another cache or a fresh one after a restart, from the capture or
        its durable layout.  A capture of these very tables (or of ones
        they grew from) is adopted by reference; any other is re-coded
        into this cache's tables, which only grow.  The capture is only
        read, so it supports any number of restores, and each counts in
        :attr:`adopted`."""
        if isinstance(state, _Capture) and self.entities.extends(state.ids):
            self._records = dict(state.records)
        else:
            self._records = _unpack_cache(state, self.entities.encode)
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.adopted += 1

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the cache under ``path``: a snapshot root
        (:mod:`repro.store.snapshot`) whose one payload is
        :meth:`checkpoint`, packed (:func:`_pack_cache`).  Returns
        ``path``.

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
        write_snapshot(root, {"score_cache": _pack_cache(self.checkpoint())})
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
