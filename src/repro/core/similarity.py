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

Two scoring backends implement identical semantics over one cache
route: with a :class:`~repro.core.score_cache.ScoreCache` attached,
:meth:`SimilarityEngine.raw_batch` reads the pairs' history versions
once, makes one :meth:`~repro.core.score_cache.ScoreCache.lookup_batch`,
sends only the misses to
the backend's scorer and makes one
:meth:`~repro.core.score_cache.ScoreCache.store_batch` of what it
returns, so both count cache work alike.  The backends differ in that
scorer and in the normalisation applied after it:

* ``backend="python"`` — the readable per-pair scalar loop below
  (``_raw_python``, then the scalar ``_normalize``), kept as the
  verification oracle and sharing no arithmetic with the other;
* ``backend="numpy"`` (default) — **one route**, whoever calls it::

      pairs -> cache? -> blocks -> Executor -> kernel (raw) -> normalize -> S > 0

  :meth:`SimilarityEngine.raw_batch` cuts the misses into blocks and
  runs every block as one :meth:`~repro.exec.Executor.map_blocks` task
  through the batch kernel of :mod:`repro.core.kernels` (which returns
  raw totals); :meth:`SimilarityEngine.normalize` is Eq. 2's length
  normalisation, written once.

:meth:`SimilarityEngine.fold` is the counter columns ->
:class:`SimilarityStats` reduction, written once.  The batch scoring
stage, the streaming linker, :meth:`score_batch` and a single
:meth:`score` (a batch of one) are all callers of these.
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
from .score_cache import EntityTables, ScoreCache, split_codes

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

    The engine is cheap to construct.  Every call — a whole candidate
    set (:meth:`score_batch`, :meth:`raw_batch`) or one pair
    (:meth:`score`, a batch of one) — takes the one cache route of the
    module docstring.  Under ``backend="python"`` its misses are scored
    by the scalar oracle, one pair at a time, with a per-engine memo of
    cell distances.
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
        on :attr:`stats`): a batch of one.  Raw totals are served from /
        stored into the attached
        :class:`~repro.core.score_cache.ScoreCache`, if any."""
        scores, local = self._scored(
            self.entities.pair_codes([(left_entity, right_entity)]), "serial", 1
        )
        return float(scores[0]), local

    def score_batch(
        self,
        pairs: Sequence[Tuple[str, str]],
        executor: Union[Executor, str] = "serial",
        block_size: int = 0,
    ) -> List[float]:
        """Score a set of pairs, accumulating :attr:`stats` as usual:
        :meth:`raw_batch` (``executor`` and ``block_size`` as there),
        the backend's normalisation, :meth:`fold`.  Every pair's
        normalisation is applied from the corpora's *current*
        statistics, so cached and freshly computed scores are
        indistinguishable.
        """
        codes = self.entities.pair_codes(pairs)
        return self._scored(codes, executor, block_size)[0].tolist()

    def _scored(
        self,
        pairs: np.ndarray,
        executor: Union[Executor, str],
        block_size: int,
    ) -> Tuple[np.ndarray, SimilarityStats]:
        """The normalised scores of ``pairs`` (pair codes over
        :attr:`entities`) and their counters (merged into :attr:`stats`):
        the history sizes, :meth:`raw_batch`, then :meth:`normalize` or,
        under ``backend="python"``, the oracle's scalar ``_normalize``.
        The sizes are read first, so an unknown entity id is a
        ``KeyError`` before any block is scored."""
        lefts, rights = split_codes(pairs)
        left_sizes = self.entities.spread(0, self.left.history_sizes, lefts)
        right_sizes = self.entities.spread(1, self.right.history_sizes, rights)
        batch = self.raw_batch(pairs, executor, block_size)
        if self.config.backend == "numpy":
            scores = self.normalize(batch.scores, left_sizes, right_sizes)
        else:
            scores = np.array([
                self._normalize(left, right, raw)
                for left, right, raw in zip(
                    self.entities.ids(0, lefts).tolist(),
                    self.entities.ids(1, rights).tolist(),
                    batch.scores.tolist(),
                )
            ], dtype=np.float64)
        return scores, self.fold(len(pairs), *batch[1:])

    def raw_batch(
        self,
        pairs: np.ndarray,
        executor: Union[Executor, str] = "serial",
        block_size: int = 0,
    ) -> BatchScoreResult:
        """The **raw** (un-normalised) Eq. 2 totals and per-pair
        counters of ``pairs`` (pair codes over :attr:`entities`) — what a
        :class:`~repro.core.score_cache.ScoreCache` memoises.  With a
        cache attached, one
        :meth:`~repro.core.score_cache.ScoreCache.lookup_batch` keyed on
        the pairs' history versions serves what is still valid, only the
        misses are scored, and one
        :meth:`~repro.core.score_cache.ScoreCache.store_batch` keeps
        them.  Without one every pair is scored.

        The misses are scored as ``map_blocks`` tasks of ``executor`` —
        an :class:`~repro.exec.Executor` (borrowed) or a backend name
        (created and shut down here; ``"serial"`` is the registry's
        :class:`~repro.exec.SerialExecutor`); the cache is read and
        written here, never in a task.  Under ``backend="numpy"`` every
        block of ``block_size`` pairs (``0`` =
        :func:`~repro.core.kernels.workload_block_size`) is one task;
        block boundaries are the same under every backend and the kernel
        is dispatch-deterministic, so the result is bit-identical
        whatever runs it.  Under ``backend="python"`` the scalar oracle's
        loop over all of them is one task.

        With a cache, each distinct entity's history version is read
        once, and an unknown entity id is a ``KeyError`` before anything
        is scored; without one no version is read (:meth:`_scored` reads
        the sizes first instead).  An exception raised *inside* a block
        task is the executor's to handle, under ``"serial"`` as under any
        backend: the block is retried within the retry budget and, past
        it, the call fails with a :class:`~repro.exec.TaskError` whose
        message names the block and the original exception's type and
        text.

        Neither normalised nor merged into :attr:`stats`: see
        :meth:`normalize` and :meth:`fold` (the streaming linker asks
        only about the pairs it cannot trust, and normalises and folds
        the cache values its whole pair table points at).
        """
        cache, space = self._score_cache, self._cache_space
        if cache is None:
            return self._score_blocks(pairs, executor, block_size)
        lefts, rights = split_codes(pairs)
        u_versions = self.entities.spread(0, self.left.history_versions, lefts)
        v_versions = self.entities.spread(1, self.right.history_versions, rights)
        hit, batch = cache.lookup_batch(space, pairs, u_versions, v_versions)
        missed = np.flatnonzero(~hit)
        if missed.size:
            misses = pairs if missed.size == len(pairs) else pairs[missed]
            result = self._score_blocks(misses, executor, block_size)
            for column, values in zip(batch, result):
                column[missed] = values
            cache.store_batch(
                space, misses, u_versions[missed], v_versions[missed], *result
            )
        return batch

    def _score_blocks(
        self,
        pairs: np.ndarray,
        executor: Union[Executor, str],
        block_size: int,
    ) -> BatchScoreResult:
        """The backend's scorer over pair codes no cache answered, as
        ``map_blocks`` tasks of ``executor``: under ``backend="numpy"``
        the pairs cut into score blocks, each a
        :class:`~repro.core.kernels.PairBlock` (each side's distinct
        entities coded once) through the kernel; under
        ``backend="python"`` one task of the scalar oracle over them
        all, which writes this engine's distance memo (the scoring stage
        runs it on a serial executor)."""
        if self.config.backend == "numpy":
            block = block_size or workload_block_size(self.left, self.right)
            task, payload = score_pair_block, (self.left, self.right, self.config)
            items = [
                self._block(pairs[start : start + block])
                for start in range(0, len(pairs), block)
            ]
        else:
            task, payload, items = _oracle_block, self, [pairs]
        with as_executor(executor) as resolved:
            outcomes = resolved.map_blocks(task, items, payload=payload)
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


def _oracle_block(engine: SimilarityEngine, pairs: np.ndarray) -> BatchScoreResult:
    """Executor task: the scalar oracle's raw totals and counters over
    pair codes, one ``_raw_python`` call per pair."""
    lefts, rights = split_codes(pairs)
    scored = [
        engine._raw_python(left, right)
        for left, right in zip(
            engine.entities.ids(0, lefts).tolist(),
            engine.entities.ids(1, rights).tolist(),
        )
    ]
    counters = np.array([
        (local.bin_comparisons, local.common_windows, local.alibi_bin_pairs)
        for _, local in scored
    ], dtype=np.int64).reshape(-1, 3)
    return BatchScoreResult(
        np.array([raw for raw, _ in scored], dtype=np.float64), *counters.T
    )
