"""The mobility-history similarity score (Sec. 3.1, Eq. 2) and its engine.

For an entity pair ``(u, v)`` the score aggregates, over every temporal
window both entities are active in, the proximity of their greedily-matched
(MNN) time-location bins, each weighted by the smaller of the two bins'
IDFs, the whole sum divided by both entities' BM25-style length norms:

``S(u, v) = sum P(e, i) * min(idf(e,E), idf(i,I)) / (L(u,E) * L(v,I))``

An optional mutually-furthest-neighbour pass adds *negative* contributions
for alibi pairs MNN pairing hides (Alg. 1's inner loop).

:class:`SimilarityEngine` precomputes everything shareable across pairs
(per-window bin/IDF tuples via :class:`~repro.core.corpus.HistoryCorpus`)
and instruments the counters the paper's evaluation reports: pairwise bin
comparisons (Fig. 4d/5d), alibi pairs (Fig. 4c/5c).

Two scoring backends implement identical semantics:

* ``backend="python"`` — the readable per-pair scalar loop below
  (``_raw_python``, scalar cache lookup / store, scalar ``_normalize``),
  kept as the verification oracle and sharing no code with the other;
* ``backend="numpy"`` (default) — **one route**, whoever calls it::

      pairs -> cache? -> blocks -> Executor -> kernel (raw) -> normalize -> S > 0

  :meth:`SimilarityEngine.raw_batch` asks the optional
  :class:`~repro.core.score_cache.ScoreCache`, cuts the misses into blocks
  and runs every block as one :meth:`~repro.exec.Executor.map_blocks` task
  through the batch kernel of :mod:`repro.core.kernels` (which returns raw
  totals); :meth:`SimilarityEngine.normalize` is Eq. 2's length
  normalisation, written once; :meth:`SimilarityEngine.fold` is the
  counter columns -> :class:`SimilarityStats` reduction, written once.
  The batch scoring stage, the streaming linker, :meth:`score_batch` and
  a single :meth:`score` (a batch of one) are all callers of these three.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exec import Executor, as_executor, raise_on_task_errors
from ..geo.cell import CellId
from ..knobs import knob, validate
from .corpus import HistoryCorpus
from .kernels import (
    ARITHMETIC_REVISION,
    BatchScoreResult,
    PairBlock,
    concat_results,
    score_pair_block,
    workload_block_size,
)
from .pairing import cartesian_index_pairs, greedy_index_pairs
from .proximity import (
    DEFAULT_ALIBI_EPS,
    DEFAULT_MAX_SPEED_MPS,
    proximity,
    runaway_distance,
)
from .score_cache import CacheBatch, EntityTables, ScoreCache, split_codes

__all__ = [
    "SimilarityConfig",
    "SimilarityStats",
    "SimilarityEngine",
    "score_cache_space",
]


def score_cache_space(
    left: HistoryCorpus, right: HistoryCorpus, config: "SimilarityConfig"
):
    """The :class:`~repro.core.score_cache.ScoreCache` space an engine
    over these corpora and this config stores raw totals under.

    Fingerprints the corpora (via their cache tokens) and every config
    knob the *raw* Eq. 2 total depends on; ``b`` and
    ``use_normalization`` are excluded on purpose — normalisation is
    re-applied from live corpus statistics on every cache hit — plus the
    kernel's arithmetic revision, so totals cached by an older kernel miss
    instead of mixing with this one's.  Exposed
    so cache owners (e.g. :class:`~repro.core.streaming.StreamingLinker`)
    can scope invalidation to their own space in a shared cache.
    """
    return (
        left.cache_token,
        right.cache_token,
        config.window_width_minutes,
        config.spatial_level,
        config.max_speed_mps,
        config.pairing,
        config.use_mfn,
        config.use_idf,
        config.alibi_eps,
        ARITHMETIC_REVISION,
    )

#: Pairing strategy names accepted by :class:`SimilarityConfig`.
PAIRINGS = ("mnn", "all_pairs")

#: Scoring backend names accepted by :class:`SimilarityConfig`.
BACKENDS = ("numpy", "python")


@dataclass(frozen=True)
class SimilarityConfig:
    """Knobs of the similarity score, with the paper's defaults.

    Attributes
    ----------
    window_width_minutes:
        Leaf temporal window width (paper default: 15 minutes).
    spatial_level:
        Grid level of the time-location bins (paper default: 12).
    max_speed_mps:
        ``alpha`` — maximum entity speed; paper uses 2 km/minute.
    b:
        Length-normalisation strength in ``L(u,E)`` (0 = ignore history
        sizes, 1 = fully proportional; paper default 0.5).
    pairing:
        ``"mnn"`` (the paper's pairing function ``N``) or ``"all_pairs"``
        (the ablation baseline).
    use_mfn:
        Run the mutually-furthest-neighbour alibi pass (Alg. 1).  Only
        meaningful under MNN pairing.
    use_idf:
        Weight pairs by ``min(idf, idf)`` (Eq. 2); off for the "No IDF"
        ablation.
    use_normalization:
        Divide by ``L(u,E) * L(v,I)``; off for the "No Normalization"
        ablation.
    alibi_eps:
        Clamp for the proximity ratio (see :mod:`repro.core.proximity`).
    backend:
        ``"numpy"`` (default) scores through the vectorized batch kernel
        (:mod:`repro.core.kernels`); ``"python"`` uses the scalar per-pair
        loop — slower, but the arithmetic oracle the parity suite checks
        the kernel against.
    """

    window_width_minutes: float = knob(
        15.0, "temporal window width in minutes", flag="--window-minutes", gt=0
    )
    spatial_level: int = knob(
        12, "grid level for time-location bins", flag="--spatial-level", ge=0, le=30
    )
    max_speed_mps: float = knob(
        DEFAULT_MAX_SPEED_MPS,
        "maximum entity speed for alibi detection, in km/h",
        flag="--max-speed-kmh",
        flag_scale=3.6,
        gt=0,
    )
    b: float = knob(
        0.5, "history-length normalisation strength in [0, 1]", flag="--b", ge=0, le=1
    )
    pairing: str = knob("mnn", choices=PAIRINGS)
    use_mfn: bool = True
    use_idf: bool = True
    use_normalization: bool = True
    alibi_eps: float = DEFAULT_ALIBI_EPS
    backend: str = knob(
        "numpy",
        "similarity scoring backend: the vectorized batch kernel (numpy) or "
        "the scalar oracle loop (python)",
        flag="--backend",
        choices=BACKENDS,
    )

    def __post_init__(self) -> None:
        validate(self)

    @property
    def window_width_seconds(self) -> float:
        """Window width in seconds."""
        return self.window_width_minutes * 60.0

    @property
    def runaway_meters(self) -> float:
        """``R`` of Eq. 1 for this configuration."""
        return runaway_distance(self.window_width_seconds, self.max_speed_mps)

    def without(self, **changes) -> "SimilarityConfig":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **changes)


@dataclass
class SimilarityStats:
    """Mutable counters accumulated by a :class:`SimilarityEngine`.

    ``bin_comparisons`` counts cell-distance evaluations (the pairwise
    record-comparison cost metric of Fig. 4d/5d/11d); ``alibi_bin_pairs``
    and ``alibi_entity_pairs`` feed Fig. 4c/5c.
    """

    pairs_scored: int = 0
    bin_comparisons: int = 0
    alibi_bin_pairs: int = 0
    alibi_entity_pairs: int = 0
    common_windows: int = 0

    def merge(self, other: "SimilarityStats") -> None:
        """Accumulate another stats object into this one."""
        self.pairs_scored += other.pairs_scored
        self.bin_comparisons += other.bin_comparisons
        self.alibi_bin_pairs += other.alibi_bin_pairs
        self.alibi_entity_pairs += other.alibi_entity_pairs
        self.common_windows += other.common_windows


class SimilarityEngine:
    """Scores entity pairs across two history corpora.

    The engine is cheap to construct.  Under ``backend="python"`` every
    call is the scalar oracle, one pair at a time, with a per-engine memo
    of cell distances.  Under ``backend="numpy"`` every call — a whole
    candidate set (:meth:`score_batch`, :meth:`raw_batch`) or one pair
    (:meth:`score`, a batch of one) — takes the one route of the module
    docstring.
    """

    def __init__(
        self,
        left: HistoryCorpus,
        right: HistoryCorpus,
        config: SimilarityConfig,
        score_cache: Optional[ScoreCache] = None,
    ) -> None:
        if left.level != config.spatial_level or right.level != config.spatial_level:
            raise ValueError(
                "corpora must be built at the similarity spatial level "
                f"({config.spatial_level}); got {left.level} / {right.level}"
            )
        self.left = left
        self.right = right
        self.config = config
        self.stats = SimilarityStats()
        self._runaway = config.runaway_meters
        self._distances: Dict[Tuple[int, int], float] = {}
        # Cross-relink memoisation of raw pair totals (see
        # repro.core.score_cache and score_cache_space above).
        self._score_cache = score_cache
        self._cache_space = score_cache_space(left, right, config)
        #: The entity tables :meth:`raw_batch`'s pair codes index: the
        #: cache's, or the engine's own without one.
        self.entities = (
            EntityTables() if score_cache is None else score_cache.entities
        )

    def distance(self, cell_a: int, cell_b: int) -> float:
        """Minimum distance between two cells in metres (the oracle's;
        memoised per engine)."""
        if cell_a == cell_b:
            return 0.0
        key = (cell_a, cell_b) if cell_a < cell_b else (cell_b, cell_a)
        cached = self._distances.get(key)
        if cached is None:
            cached = CellId(key[0]).distance_meters(CellId(key[1]))
            self._distances[key] = cached
        return cached

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score(self, left_entity: str, right_entity: str) -> float:
        """``S(u, v)`` of Eq. 2 (with the Alg. 1 MFN alibi pass)."""
        score, _ = self.score_with_stats(left_entity, right_entity)
        return score

    def score_with_stats(
        self, left_entity: str, right_entity: str
    ) -> Tuple[float, SimilarityStats]:
        """Score a pair and return per-pair counters (also accumulated
        on :attr:`stats`).  Raw totals are served from / stored into the
        attached :class:`~repro.core.score_cache.ScoreCache`, if any.
        Under ``backend="numpy"`` this is a batch of one."""
        if self.config.backend == "numpy":
            scores, local = self._scored(
                [(left_entity, right_entity)], "serial", block_size=1
            )
            return float(scores[0]), local
        _, raw, local = self._raw_with_stats(left_entity, right_entity)
        self.stats.merge(local)
        return self._normalize(left_entity, right_entity, raw), local

    def score_batch(
        self,
        pairs: Sequence[Tuple[str, str]],
        executor: Union[Executor, str] = "serial",
        block_size: int = 0,
    ) -> List[float]:
        """Score a set of pairs, accumulating :attr:`stats` as usual.

        Under ``backend="numpy"``: :meth:`raw_batch` (``executor`` and
        ``block_size`` as there), :meth:`normalize`, :meth:`fold`.  Every
        pair's normalisation is applied from the corpora's *current*
        statistics, so cached and freshly computed scores are
        indistinguishable.  Under ``backend="python"`` this is a plain
        loop over :meth:`score` — the oracle never shards.
        """
        if self.config.backend != "numpy":
            return [self.score(left, right) for left, right in pairs]
        return self._scored(pairs, executor, block_size)[0].tolist()

    def _scored(
        self,
        pairs: Sequence[Tuple[str, str]],
        executor: Union[Executor, str],
        block_size: int,
    ) -> Tuple[np.ndarray, SimilarityStats]:
        """The numpy route end to end: the pairs' normalised scores and
        their counters (merged into :attr:`stats`)."""
        codes = self.entities.pair_codes(pairs)
        batch = self.raw_batch(codes, executor, block_size)
        lefts, rights = split_codes(codes)
        scores = self.normalize(
            batch.raw,
            self.entities.spread(0, self.left.history_sizes, lefts),
            self.entities.spread(1, self.right.history_sizes, rights),
        )
        return scores, self.fold(
            len(pairs),
            batch.bin_comparisons,
            batch.common_windows,
            batch.alibi_bin_pairs,
        )

    def raw_batch(
        self,
        pairs: np.ndarray,
        executor: Union[Executor, str] = "serial",
        block_size: int = 0,
    ) -> CacheBatch:
        """The **raw** (un-normalised) Eq. 2 totals and per-pair
        counters of ``pairs`` (pair codes over :attr:`entities`) — what a
        :class:`~repro.core.score_cache.ScoreCache` memoises.  With a
        cache attached they are served from it where still valid (one
        vectorized :meth:`~repro.core.score_cache.ScoreCache.lookup_batch` keyed on
        the pairs' history versions) and computed, then stored back,
        where not; ``hit`` says which.  Without one every pair is a miss.

        The misses are cut into blocks of ``block_size`` pairs (``0`` =
        :func:`~repro.core.kernels.workload_block_size`) and every block
        is one ``map_blocks`` task of ``executor`` — an
        :class:`~repro.exec.Executor` (borrowed) or a backend name
        (created and shut down here; ``"serial"`` is the registry's
        :class:`~repro.exec.SerialExecutor`).  Block boundaries are the
        same under every backend and the kernel is dispatch-deterministic,
        so the result is bit-identical whatever runs it.

        Each distinct entity's history version is read once; an unknown
        entity id is a ``KeyError`` before anything is dispatched.  An
        exception raised *inside* a block task is the executor's to
        handle, under ``"serial"`` as under any backend: the block is
        retried within the retry budget and, past it, the call
        fails with a :class:`~repro.exec.TaskError` whose message names
        the block and the original exception's type and text.

        Neither normalised nor merged into :attr:`stats`: see
        :meth:`normalize` and :meth:`fold` (the streaming linker asks
        only about the pairs it cannot trust, and normalises and folds
        the cache values its whole pair table points at).
        """
        count = len(pairs)
        lefts, rights = split_codes(pairs)
        entities = self.entities
        if self.config.backend != "numpy":
            hit = np.zeros(count, dtype=bool)
            raw = np.zeros(count, dtype=np.float64)
            counters = np.zeros((3, count), dtype=np.int64)
            for position, (left_entity, right_entity) in enumerate(zip(
                entities.ids(0, lefts).tolist(), entities.ids(1, rights).tolist()
            )):
                hit[position], raw[position], local = self._raw_with_stats(
                    left_entity, right_entity
                )
                counters[:, position] = (
                    local.bin_comparisons,
                    local.common_windows,
                    local.alibi_bin_pairs,
                )
            return CacheBatch(hit, raw, *counters)

        # Read with or without a cache to key: an unknown entity id
        # fails here, as a KeyError, rather than inside a block task.
        u_versions = entities.spread(0, self.left.history_versions, lefts)
        v_versions = entities.spread(1, self.right.history_versions, rights)
        cache = self._score_cache
        if cache is None:
            batch = CacheBatch(
                np.zeros(count, dtype=bool),
                np.zeros(count, dtype=np.float64),
                *np.zeros((3, count), dtype=np.int64),
            )
        else:
            batch = cache.lookup_batch(
                self._cache_space, pairs, u_versions, v_versions
            )
        missed = np.flatnonzero(~batch.hit)
        if missed.size:
            misses = pairs if missed.size == count else pairs[missed]
            result = self._score_blocks(misses, executor, block_size)
            batch.raw[missed] = result.scores
            batch.bin_comparisons[missed] = result.bin_comparisons
            batch.common_windows[missed] = result.common_windows
            batch.alibi_bin_pairs[missed] = result.alibi_bin_pairs
            if cache is not None:
                cache.store_batch(
                    self._cache_space,
                    misses,
                    u_versions[missed],
                    v_versions[missed],
                    raw=result.scores,
                    bin_comparisons=result.bin_comparisons,
                    common_windows=result.common_windows,
                    alibi_bin_pairs=result.alibi_bin_pairs,
                )
        return batch

    def _score_blocks(
        self,
        pairs: np.ndarray,
        executor: Union[Executor, str],
        block_size: int,
    ) -> BatchScoreResult:
        """Every kernel dispatch of the numpy route: the pair codes cut
        into score blocks, each block one ``map_blocks`` task over a
        :class:`~repro.core.kernels.PairBlock` (each side's distinct
        entities coded once)."""
        block = block_size or workload_block_size(self.left, self.right)
        with as_executor(executor) as resolved:
            outcomes = resolved.map_blocks(
                score_pair_block,
                [
                    self._block(pairs[start : start + block])
                    for start in range(0, len(pairs), block)
                ],
                payload=(self.left, self.right, self.config),
            )
        # The dispatch itself always completes (pools released, good
        # blocks kept); only a block that failed past its retry budget
        # *and* the inline fallback aborts the scoring — as a clean,
        # descriptive error instead of a poisoned result.
        raise_on_task_errors(outcomes, "scoring")
        return concat_results([outcome.value for outcome in outcomes])

    def _block(self, pairs: np.ndarray) -> PairBlock:
        """One score block of pair codes, as the kernel takes it."""
        (left_codes, left), (right_codes, right) = (
            np.unique(codes, return_inverse=True) for codes in split_codes(pairs)
        )
        return PairBlock(
            self.entities.ids(0, left_codes).tolist(), left,
            self.entities.ids(1, right_codes).tolist(), right,
        )

    def normalize(
        self, raw: np.ndarray, left_sizes: np.ndarray, right_sizes: np.ndarray
    ) -> np.ndarray:
        """Eq. 2's length normalisation over columns: ``raw[i]`` divided
        by ``L(u,E) * L(v,I)`` for history sizes ``left_sizes[i]`` /
        ``right_sizes[i]`` (identity when disabled or degenerate).  The
        same IEEE operations per element as the oracle's scalar
        ``_normalize``, so the values are bit-identical to it."""
        if not self.config.use_normalization:
            return raw
        b = self.config.b
        norms = self.left.size_norms(left_sizes, b) * self.right.size_norms(
            right_sizes, b
        )
        return np.divide(raw, norms, out=raw.copy(), where=norms > 0)

    def fold(
        self,
        pairs_scored: int,
        bin_comparisons: np.ndarray,
        common_windows: np.ndarray,
        alibi_bin_pairs: np.ndarray,
    ) -> SimilarityStats:
        """Reduce per-pair counter columns to one
        :class:`SimilarityStats`, merged into :attr:`stats` and returned."""
        folded = SimilarityStats(
            pairs_scored=pairs_scored,
            bin_comparisons=int(bin_comparisons.sum()),
            alibi_bin_pairs=int(alibi_bin_pairs.sum()),
            alibi_entity_pairs=int(np.count_nonzero(alibi_bin_pairs)),
            common_windows=int(common_windows.sum()),
        )
        self.stats.merge(folded)
        return folded

    # ------------------------------------------------------------------
    # the scalar oracle
    # ------------------------------------------------------------------
    def _raw_with_stats(
        self, left_entity: str, right_entity: str
    ) -> Tuple[bool, float, SimilarityStats]:
        """One pair's raw total and counters — from the cache (first
        item True) or computed and stored back."""
        cache = self._score_cache
        if cache is not None:
            entry = cache.lookup(
                self._cache_space,
                left_entity,
                right_entity,
                self.left.history(left_entity).version,
                self.right.history(right_entity).version,
            )
            if entry is not None:
                return True, entry.raw, SimilarityStats(
                    pairs_scored=1,
                    bin_comparisons=entry.bin_comparisons,
                    common_windows=entry.common_windows,
                    alibi_bin_pairs=entry.alibi_bin_pairs,
                    alibi_entity_pairs=1 if entry.alibi_bin_pairs else 0,
                )
        raw, local = self._raw_python(left_entity, right_entity)
        if cache is not None:
            cache.store(
                self._cache_space,
                left_entity,
                right_entity,
                self.left.history(left_entity).version,
                self.right.history(right_entity).version,
                raw=raw,
                bin_comparisons=local.bin_comparisons,
                common_windows=local.common_windows,
                alibi_bin_pairs=local.alibi_bin_pairs,
            )
        return False, raw, local

    def _normalize(self, left_entity: str, right_entity: str, raw: float) -> float:
        """Apply the Eq. 2 length normalisation ``L(u,E) * L(v,I)`` to a
        raw pair total (identity when disabled or degenerate)."""
        if not self.config.use_normalization:
            return raw
        norm = self.left.length_norm(
            left_entity, self.config.b
        ) * self.right.length_norm(right_entity, self.config.b)
        return raw / norm if norm > 0 else raw

    def _raw_python(
        self, left_entity: str, right_entity: str
    ) -> Tuple[float, SimilarityStats]:
        """The scalar verification oracle (Eq. 2 + Alg. 1, loop form),
        stopping short of the length normalisation."""
        config = self.config
        runaway = self._runaway
        alibi_eps = config.alibi_eps
        use_idf = config.use_idf
        use_mfn = config.use_mfn and config.pairing == "mnn"
        mnn = config.pairing == "mnn"
        distance = self.distance

        bins_u = self.left.bins_with_idf(left_entity)
        bins_v = self.right.bins_with_idf(right_entity)
        # Iterate the smaller history's windows; lookups hit the larger.
        if len(bins_u) <= len(bins_v):
            outer, inner, flipped = bins_u, bins_v, False
        else:
            outer, inner, flipped = bins_v, bins_u, True

        local = SimilarityStats(pairs_scored=1)
        total = 0.0
        for window, outer_bins in outer.items():
            inner_bins = inner.get(window)
            if inner_bins is None:
                continue
            local.common_windows += 1
            if flipped:
                ev, eu = outer_bins, inner_bins
            else:
                eu, ev = outer_bins, inner_bins

            len_u, len_v = len(eu), len(ev)
            local.bin_comparisons += len_u * len_v
            matrix = [
                [distance(cu, cv) for cv, _ in ev] for cu, _ in eu
            ]

            if mnn:
                selected = greedy_index_pairs(matrix, reverse=False)
            else:
                selected = cartesian_index_pairs(matrix)

            counted = set()
            for iu, iv, pair_distance in selected:
                counted.add((iu, iv))
                p = proximity(pair_distance, runaway, alibi_eps)
                if p < 0.0:
                    local.alibi_bin_pairs += 1
                weight = min(eu[iu][1], ev[iv][1]) if use_idf else 1.0
                total += p * weight

            if use_mfn and (len_u > 1 or len_v > 1):
                for iu, iv, pair_distance in greedy_index_pairs(matrix, reverse=True):
                    # Skip pairs the MNN pass already counted (the paper's
                    # "to avoid double counting" rule).
                    if (iu, iv) in counted:
                        continue
                    p = proximity(pair_distance, runaway, alibi_eps)
                    weight = min(eu[iu][1], ev[iv][1]) if use_idf else 1.0
                    delta = p * weight
                    if delta < 0.0:
                        local.alibi_bin_pairs += 1
                        total += delta

        if local.alibi_bin_pairs:
            local.alibi_entity_pairs = 1
        return total, local
