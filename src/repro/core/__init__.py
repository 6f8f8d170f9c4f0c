"""SLIM core: mobility histories, the similarity score, matching, the
automated stop threshold, performance tuning and the pipeline (Alg. 1)."""

from .corpus import CorpusDelta, HistoryCorpus
from .elbow import kneedle_index, kneedle_x
from .gmm import GaussianMixture1D
from .history import MobilityHistory, build_histories
from .matching import Edge, greedy_max_matching, hungarian_matching, match
from .pairing import all_pairs, mfn_pairs, mnn_pairs
from .proximity import DEFAULT_MAX_SPEED_MPS, proximity, runaway_distance
from .retention import (
    MaxEntitiesRetention,
    NoRetention,
    RetentionPolicy,
    SlidingWindowRetention,
    build_retention,
    retention_policies,
)
from .score_cache import ScoreCache
from .similarity import SimilarityConfig, SimilarityEngine, SimilarityStats
from .streaming import RelinkStats, StreamingLinker
from .threshold import (
    ThresholdDecision,
    gmm_stop_threshold,
    otsu_threshold,
    two_means_threshold,
)
from .tuning import SpatialLevelChoice, auto_spatial_level, auto_spatial_level_for_pair

__all__ = [
    "MobilityHistory",
    "build_histories",
    "HistoryCorpus",
    "CorpusDelta",
    "ScoreCache",
    "RelinkStats",
    "SimilarityConfig",
    "SimilarityEngine",
    "SimilarityStats",
    "proximity",
    "runaway_distance",
    "DEFAULT_MAX_SPEED_MPS",
    "mnn_pairs",
    "mfn_pairs",
    "all_pairs",
    "Edge",
    "match",
    "greedy_max_matching",
    "hungarian_matching",
    "GaussianMixture1D",
    "ThresholdDecision",
    "gmm_stop_threshold",
    "otsu_threshold",
    "two_means_threshold",
    "kneedle_index",
    "kneedle_x",
    "SpatialLevelChoice",
    "auto_spatial_level",
    "auto_spatial_level_for_pair",
    "StreamingLinker",
    "RetentionPolicy",
    "NoRetention",
    "SlidingWindowRetention",
    "MaxEntitiesRetention",
    "retention_policies",
    "build_retention",
]
