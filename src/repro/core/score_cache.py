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

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..store.snapshot import load_state, write_snapshot

__all__ = ["PairScore", "ScoreCache", "CacheBatch"]

#: Initial row capacity of the columnar store.
_MIN_CAPACITY = 256


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


class ScoreCache:
    """Bounded LRU of cached pair scores over a columnar store.

    ``cap=None`` (the default) keeps every entry — right for a
    :class:`~repro.core.streaming.StreamingLinker`, whose working set is
    the candidate-pair set; pass a cap when sharing a cache across large
    auto-tuning sweeps.
    """

    def __init__(self, cap: Optional[int] = None) -> None:
        if cap is not None and cap < 1:
            raise ValueError("cache cap must be positive")
        self._cap = cap
        # pair -> row in the columnar arrays; OrderedDict order is the
        # LRU order (oldest first).
        self._rows: "OrderedDict[Tuple[Hashable, str, str], int]" = (
            OrderedDict()
        )
        self._free: List[int] = []
        self._high = 0  # rows ever allocated (high-water mark)
        self._u_version = np.empty(0, dtype=np.int64)
        self._v_version = np.empty(0, dtype=np.int64)
        self._raw = np.empty(0, dtype=np.float64)
        self._bin_comparisons = np.empty(0, dtype=np.int64)
        self._common_windows = np.empty(0, dtype=np.int64)
        self._alibi_bin_pairs = np.empty(0, dtype=np.int64)
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
        return (
            self._u_version,
            self._v_version,
            self._raw,
            self._bin_comparisons,
            self._common_windows,
            self._alibi_bin_pairs,
        )

    def _grow(self, capacity: int) -> None:
        def extend(array: np.ndarray) -> np.ndarray:
            grown = np.empty(capacity, dtype=array.dtype)
            grown[: len(array)] = array
            return grown

        self._u_version = extend(self._u_version)
        self._v_version = extend(self._v_version)
        self._raw = extend(self._raw)
        self._bin_comparisons = extend(self._bin_comparisons)
        self._common_windows = extend(self._common_windows)
        self._alibi_bin_pairs = extend(self._alibi_bin_pairs)

    def _alloc_row(self) -> int:
        if self._free:
            return self._free.pop()
        row = self._high
        if row >= len(self._raw):
            self._grow(max(_MIN_CAPACITY, 2 * len(self._raw)))
        self._high += 1
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

    def _evict_lru(self) -> None:
        while self._cap is not None and len(self._rows) > self._cap:
            _, row = self._rows.popitem(last=False)
            self._free.append(row)

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
            del self._rows[key]
            self._free.append(row)
            self.misses += 1
            return None
        self.hits += 1
        self._rows.move_to_end(key)
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
        """Memoise one freshly scored pair (evicting LRU beyond the cap)."""
        key = (space, left_entity, right_entity)
        row = self._rows.get(key)
        if row is None:
            row = self._alloc_row()
            self._rows[key] = row
        self._rows.move_to_end(key)
        self._u_version[row] = u_version
        self._v_version[row] = v_version
        self._raw[row] = raw
        self._bin_comparisons[row] = bin_comparisons
        self._common_windows[row] = common_windows
        self._alibi_bin_pairs[row] = alibi_bin_pairs
        self._evict_lru()
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
            # pop defensively: a pair duplicated within the batch is
            # evicted by its first stale occurrence.
            row = self._rows.pop((space, left, right), None)
            if row is not None:
                self._free.append(row)
        hit_count = int(np.count_nonzero(fresh))
        self.hits += hit_count
        self.misses += n - hit_count
        if self._cap is not None and hit_count:
            # LRU order only matters under a cap; the uncapped streaming
            # default skips the per-hit reorder entirely.
            move = self._rows.move_to_end
            for position in np.nonzero(fresh)[0]:
                left, right = pairs[position]
                move((space, left, right))
        hit[:] = fresh
        fresh_rows = rows[fresh]
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
        rows = np.empty(n, dtype=np.int64)
        directory = self._rows
        for position, (left, right) in enumerate(pairs):
            key = (space, left, right)
            row = directory.get(key)
            if row is None:
                row = self._alloc_row()
                directory[key] = row
            else:
                directory.move_to_end(key)
            rows[position] = row
        self._u_version[rows] = u_versions
        self._v_version[rows] = v_versions
        self._raw[rows] = raw
        self._bin_comparisons[rows] = bin_comparisons
        self._common_windows[rows] = common_windows
        self._alibi_bin_pairs[rows] = alibi_bin_pairs
        self._evict_lru()
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
        """
        lefts: Set[str] = set(left_entities)
        rights: Set[str] = set(right_entities)
        if not lefts and not rights:
            return 0
        doomed = [
            key
            for key in self._rows
            if (space is None or key[0] == space)
            and (key[1] in lefts or key[2] in rights)
        ]
        for key in doomed:
            self._free.append(self._rows.pop(key))
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._rows.clear()
        self._free.clear()
        self._high = 0

    # ------------------------------------------------------------------
    # state: one capture for rollback, snapshots and the cache file
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """The cache's whole state as a plain dict, for :meth:`restore`:
        the live pairs in exact LRU order, their column values gathered
        in that order (row numbering is allocation detail, not state),
        the cap and the hit/miss counters — a rolled-back relink leaves
        no trace, and the same dict pickled is the persisted cache.
        :meth:`store` scatters *in place*, so the gather is also the
        copy a rollback needs."""
        rows = np.fromiter(self._rows.values(), np.int64, count=len(self._rows))
        return {
            "cap": self._cap,
            "keys": list(self._rows),
            "columns": tuple(column[rows] for column in self._columns()),
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Become the cache a :meth:`checkpoint` captured — this one
        rewound (rows stored since gone, rows evicted since back) or a
        fresh one after a restart.  The capture is only read, so it
        supports any number of restores."""
        keys = state["keys"]
        count = len(keys)
        if count > len(self._raw):
            self._grow(max(_MIN_CAPACITY, count))
        for column, values in zip(self._columns(), state["columns"]):
            column[:count] = values
        self._rows = OrderedDict(zip(keys, range(count)))
        self._free = []
        self._high = count
        self._cap = state["cap"]
        self.hits = state["hits"]
        self.misses = state["misses"]

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
