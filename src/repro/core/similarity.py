"""The mobility-history similarity score (Sec. 3.1, Eq. 2) and its engine.

For an entity pair ``(u, v)`` the score aggregates, over every temporal
window both entities are active in, the proximity of their greedily-matched
(MNN) time-location bins, each weighted by the smaller of the two bins'
IDFs, the whole sum divided by both entities' BM25-style length norms:

``S(u, v) = sum P(e, i) * min(idf(e,E), idf(i,I)) / (L(u,E) * L(v,I))``

An optional mutually-furthest-neighbour pass adds *negative* contributions
for alibi pairs MNN pairing hides (Alg. 1's inner loop).

:class:`SimilarityEngine` precomputes everything shareable across pairs
(per-window bin/IDF tuples via :class:`~repro.core.corpus.HistoryCorpus`, a
bounded cross-pair cell distance cache) and instruments the counters the
paper's evaluation reports: pairwise bin comparisons (Fig. 4d/5d), alibi
pairs (Fig. 4c/5c).

Two scoring backends implement identical semantics:

* ``backend="python"`` — the readable per-pair scalar loop below, kept as
  the verification oracle;
* ``backend="numpy"`` (default) — the vectorized batch kernel of
  :mod:`repro.core.kernels`, which scores whole blocks of candidate pairs
  at once over the corpus' array views.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geo.cell import CellId
from ..knobs import knob, validate
from .corpus import HistoryCorpus
from .pairing import cartesian_index_pairs, greedy_index_pairs
from .proximity import (
    DEFAULT_ALIBI_EPS,
    DEFAULT_MAX_SPEED_MPS,
    proximity,
    runaway_distance,
)
from .score_cache import CacheBatch, ScoreCache

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
    re-applied from live corpus statistics on every cache hit.  Exposed
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
    )

#: Pairing strategy names accepted by :class:`SimilarityConfig`.
PAIRINGS = ("mnn", "all_pairs")

#: Scoring backend names accepted by :class:`SimilarityConfig`.
BACKENDS = ("numpy", "python")

#: Default bound on the engine's cell-distance LRU cache (distinct cell
#: pairs).  At ~100 bytes per dict entry this caps the cache near 25 MB.
DEFAULT_DISTANCE_CACHE_CAP = 1 << 18


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
    distance_cache_cap:
        Maximum number of distinct cell pairs the scalar backend's
        distance LRU retains (least-recently-used eviction beyond it).
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
    distance_cache_cap: int = knob(DEFAULT_DISTANCE_CACHE_CAP, ge=1)

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
    ``distance_cache_hits`` / ``distance_cache_misses`` instrument the
    scalar backend's bounded distance LRU (the numpy backend never touches
    it — distances are recomputed vectorized, which is cheaper than a dict
    round-trip per lookup).
    """

    pairs_scored: int = 0
    bin_comparisons: int = 0
    alibi_bin_pairs: int = 0
    alibi_entity_pairs: int = 0
    common_windows: int = 0
    distance_cache_hits: int = 0
    distance_cache_misses: int = 0

    def merge(self, other: "SimilarityStats") -> None:
        """Accumulate another stats object into this one."""
        self.pairs_scored += other.pairs_scored
        self.bin_comparisons += other.bin_comparisons
        self.alibi_bin_pairs += other.alibi_bin_pairs
        self.alibi_entity_pairs += other.alibi_entity_pairs
        self.common_windows += other.common_windows
        self.distance_cache_hits += other.distance_cache_hits
        self.distance_cache_misses += other.distance_cache_misses


class SimilarityEngine:
    """Scores entity pairs across two history corpora.

    The engine is cheap to construct.  Under ``backend="python"`` a
    bounded cross-pair distance LRU is shared across all ``score`` calls;
    under ``backend="numpy"`` scoring dispatches to the batch kernel of
    :mod:`repro.core.kernels` — per-pair via :meth:`score`, or in whole
    candidate blocks via :meth:`score_batch` (the fast path
    :class:`~repro.pipeline.stages.ScoringStage` uses).
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
        self._distance_cache: "OrderedDict[Tuple[int, int], float]" = OrderedDict()
        self._distance_cache_cap = config.distance_cache_cap
        # Cross-relink memoisation of raw pair totals (see
        # repro.core.score_cache and score_cache_space above).
        self._score_cache = score_cache
        self._cache_space = score_cache_space(left, right, config)
        self._raw_config = config.without(use_normalization=False)

    # ------------------------------------------------------------------
    # distance with cache
    # ------------------------------------------------------------------
    def distance(self, cell_a: int, cell_b: int) -> float:
        """LRU-cached minimum distance between two cells (metres)."""
        if cell_a == cell_b:
            return 0.0
        key = (cell_a, cell_b) if cell_a < cell_b else (cell_b, cell_a)
        cache = self._distance_cache
        cached = cache.get(key)
        if cached is None:
            self.stats.distance_cache_misses += 1
            cached = CellId(key[0]).distance_meters(CellId(key[1]))
            cache[key] = cached
            if len(cache) > self._distance_cache_cap:
                cache.popitem(last=False)
        else:
            self.stats.distance_cache_hits += 1
            cache.move_to_end(key)
        return cached

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score(self, left_entity: str, right_entity: str) -> float:
        """``S(u, v)`` of Eq. 2 (with the Alg. 1 MFN alibi pass)."""
        score, _ = self.score_with_stats(left_entity, right_entity)
        return score

    def score_batch(
        self,
        pairs: Sequence[Tuple[str, str]],
        dispatch=None,
    ) -> List[float]:
        """Score a block of pairs, accumulating :attr:`stats` as usual.

        Under ``backend="numpy"`` the whole block goes through one
        vectorized kernel dispatch — windows from every pair are grouped
        by distance-matrix shape, so the batch amortises far better than
        per-pair calls.  Under ``backend="python"`` this is a plain loop
        over :meth:`score`.

        ``dispatch`` overrides *how* the kernel work runs without touching
        what is computed: a callable ``(pairs, config) ->
        BatchScoreResult`` that must return exactly what
        :func:`~repro.core.kernels.score_pairs_batch` would for the same
        arguments.  The parallel scoring stage passes a sharding dispatch
        that fans sub-blocks out through an executor
        (:mod:`repro.exec`); cache lookups, stores and normalisation all
        stay in this engine, so cached and parallel scoring compose.

        With a :class:`~repro.core.score_cache.ScoreCache` attached, pairs
        whose cached raw totals are still valid skip the kernel entirely;
        only the cache misses are dispatched (and stored back), and every
        pair's normalisation is applied from the corpora's *current*
        statistics — so cached and freshly computed scores are
        indistinguishable.  The hit path is fully vectorized: one
        :meth:`~repro.core.score_cache.ScoreCache.lookup_batch` keyed on
        the block's history-version arrays, one array normalisation —
        no per-pair Python loop.
        """
        if self.config.backend != "numpy":
            return [self.score(left, right) for left, right in pairs]
        cache = self._score_cache
        if cache is None:
            result = (dispatch or self._kernel)(pairs, self.config)
            batch = SimilarityStats(
                pairs_scored=len(pairs),
                bin_comparisons=int(result.bin_comparisons.sum()),
                alibi_bin_pairs=int(result.alibi_bin_pairs.sum()),
                alibi_entity_pairs=int((result.alibi_bin_pairs > 0).sum()),
                common_windows=int(result.common_windows.sum()),
            )
            self.stats.merge(batch)
            return result.scores.tolist()

        pairs = list(pairs)
        if not pairs:
            return []
        batch, (left_entities, left_codes, right_entities, right_codes) = (
            self._raw_batch(pairs, dispatch)
        )
        scores = batch.raw
        if self.config.use_normalization:
            b = self.config.b
            norms = (
                self.left.length_norms(left_entities, b)[left_codes]
                * self.right.length_norms(right_entities, b)[right_codes]
            )
            positive = norms > 0
            scores = batch.raw.copy()
            scores[positive] = batch.raw[positive] / norms[positive]
        self.stats.merge(
            SimilarityStats(
                pairs_scored=len(pairs),
                bin_comparisons=int(batch.bin_comparisons.sum()),
                alibi_bin_pairs=int(batch.alibi_bin_pairs.sum()),
                alibi_entity_pairs=int(np.count_nonzero(batch.alibi_bin_pairs)),
                common_windows=int(batch.common_windows.sum()),
            )
        )
        return scores.tolist()

    def raw_batch(
        self,
        pairs: Sequence[Tuple[str, str]],
        dispatch=None,
    ) -> CacheBatch:
        """The block's **raw** (un-normalised) Eq. 2 totals and per-pair
        counters — what the attached
        :class:`~repro.core.score_cache.ScoreCache` memoises — served from
        the cache where still valid, computed (and stored back) where
        not; ``hit`` says which.  Neither normalised nor merged into
        :attr:`stats`: that is the caller's whole-column job (the
        streaming linker keeps these columns resident across relinks and
        asks only about the pairs a delta touched).  ``dispatch`` as in
        :meth:`score_batch`.
        """
        pairs = list(pairs)
        if self.config.backend == "numpy":
            return self._raw_batch(pairs, dispatch)[0]
        hit = np.zeros(len(pairs), dtype=bool)
        raw = np.zeros(len(pairs), dtype=np.float64)
        counters = np.zeros((3, len(pairs)), dtype=np.int64)
        for position, (left_entity, right_entity) in enumerate(pairs):
            hit[position], raw[position], local = self._raw_with_stats(
                left_entity, right_entity
            )
            counters[:, position] = (
                local.bin_comparisons,
                local.common_windows,
                local.alibi_bin_pairs,
            )
        return CacheBatch(hit, raw, *counters)

    def _kernel(self, block: Sequence[Tuple[str, str]], config: SimilarityConfig):
        """The default ``dispatch``: the batch kernel, in process (looked
        up on its module per call, so a proxy installed there is seen)."""
        from .kernels import score_pairs_batch

        return score_pairs_batch(self.left, self.right, block, config)

    def _raw_batch(self, pairs: List[Tuple[str, str]], dispatch):
        """The numpy backend's cached block path: one
        :meth:`~repro.core.score_cache.ScoreCache.lookup_batch`, one
        kernel dispatch over the misses, one ``store_batch``.  Returns
        the filled :class:`~repro.core.score_cache.CacheBatch` plus the
        block's entity encoding (for the caller's normalisation)."""
        count = len(pairs)
        # Encode each side's entities as dense integer codes in one pass:
        # versions and length norms are then computed once per *unique*
        # entity and fanned out to pairs by vectorized gathers.
        left_codes = np.empty(count, dtype=np.intp)
        right_codes = np.empty(count, dtype=np.intp)
        left_code_of: dict = {}
        right_code_of: dict = {}
        left_entities: List[str] = []
        right_entities: List[str] = []
        for position, (left_entity, right_entity) in enumerate(pairs):
            code = left_code_of.get(left_entity)
            if code is None:
                code = len(left_entities)
                left_code_of[left_entity] = code
                left_entities.append(left_entity)
            left_codes[position] = code
            code = right_code_of.get(right_entity)
            if code is None:
                code = len(right_entities)
                right_code_of[right_entity] = code
                right_entities.append(right_entity)
            right_codes[position] = code
        encoding = (left_entities, left_codes, right_entities, right_codes)

        cache = self._score_cache
        if cache is None:
            raise ValueError("raw totals are served through a score cache")
        u_versions = self.left.history_versions(left_entities)[left_codes]
        v_versions = self.right.history_versions(right_entities)[right_codes]
        batch = cache.lookup_batch(
            self._cache_space, pairs, u_versions, v_versions
        )
        miss_positions = np.nonzero(~batch.hit)[0]
        if miss_positions.size:
            misses = [pairs[position] for position in miss_positions.tolist()]
            result = (dispatch or self._kernel)(misses, self._raw_config)
            batch.raw[miss_positions] = result.scores
            batch.bin_comparisons[miss_positions] = result.bin_comparisons
            batch.common_windows[miss_positions] = result.common_windows
            batch.alibi_bin_pairs[miss_positions] = result.alibi_bin_pairs
            cache.store_batch(
                self._cache_space,
                misses,
                u_versions[miss_positions],
                v_versions[miss_positions],
                raw=result.scores,
                bin_comparisons=result.bin_comparisons,
                common_windows=result.common_windows,
                alibi_bin_pairs=result.alibi_bin_pairs,
            )
        return batch, encoding

    def score_with_stats(
        self, left_entity: str, right_entity: str
    ) -> Tuple[float, SimilarityStats]:
        """Score a pair and return per-pair counters (also accumulated
        on :attr:`stats`).  Raw totals are served from / stored into the
        attached :class:`~repro.core.score_cache.ScoreCache`, if any."""
        _, raw, local = self._raw_with_stats(left_entity, right_entity)
        self.stats.merge(local)
        return self._normalize(left_entity, right_entity, raw), local

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
        if self.config.backend == "numpy":
            raw, local = self._raw_numpy(left_entity, right_entity)
        else:
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

    def _raw_numpy(
        self, left_entity: str, right_entity: str
    ) -> Tuple[float, SimilarityStats]:
        """Single-pair raw total through the batch kernel."""
        from .kernels import score_pairs_batch

        result = score_pairs_batch(
            self.left, self.right, [(left_entity, right_entity)], self._raw_config
        )
        local = SimilarityStats(
            pairs_scored=1,
            bin_comparisons=int(result.bin_comparisons[0]),
            alibi_bin_pairs=int(result.alibi_bin_pairs[0]),
            alibi_entity_pairs=1 if result.alibi_bin_pairs[0] else 0,
            common_windows=int(result.common_windows[0]),
        )
        return float(result.scores[0]), local

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

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def reset_stats(self) -> SimilarityStats:
        """Return the accumulated stats and start fresh counters."""
        finished = self.stats
        self.stats = SimilarityStats()
        return finished

    @property
    def distance_cache_size(self) -> int:
        """Number of distinct cell pairs whose distance has been computed."""
        return len(self._distance_cache)
