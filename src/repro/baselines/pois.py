"""POIS baseline (Riederer et al., WWW 2016 — the paper's ref [32]).

POIS links users across services under a generative model: each user
visits location-time bins following a Poisson process, and each service
observes those visits through independent Bernoulli thinning.  The
resulting maximum-likelihood pair score reduces to a co-occurrence sum in
which a bin's contribution grows with both sides' visit counts and with the
bin's *rarity* (popular bins are likely chance collisions):

``score(u, v) = sum_bins n_u(bin) * n_v(bin) * (-log p(bin))``

with ``p(bin)`` the bin's share of all records.  One-to-one linkage then
comes from a maximum-weight bipartite matching, as in the original paper.

SLIM's authors discuss POIS in related work (Sec. 6): it "assumes that
visits of each user to a location during a time period follow a Poisson
distribution and records on each service are independent ... following a
Bernoulli distribution", whereas SLIM makes no mobility-model assumption.
This implementation rounds out the comparator set for users who want the
model-based alternative; it is not part of the paper's Fig. 11 evaluation
(the paper compares against GM, which subsumed POIS in its own evaluation).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.matching import Edge, EdgeSet
from ..core.similarity import SimilarityStats
from ..data.records import LocationDataset
from ..pipeline import (
    STAGE_CANDIDATES,
    STAGE_SCORING,
    LinkageConfig,
    LinkageContext,
    LinkagePipeline,
    LinkageReport,
    MatchingStage,
    ThresholdStage,
)
from ..pipeline.stages import _HistoryPrepare

__all__ = ["PoisConfig", "PoisLinker"]


@dataclass(frozen=True)
class PoisConfig:
    """POIS parameters: the spatio-temporal bin grid and a minimum score."""

    window_width_minutes: float = 15.0
    spatial_level: int = 12
    min_score: float = 0.0

    def __post_init__(self) -> None:
        if self.window_width_minutes <= 0:
            raise ValueError("window width must be positive")
        if not 0 <= self.spatial_level <= 30:
            raise ValueError("spatial level must be in 0..30")

    @property
    def window_width_seconds(self) -> float:
        """Window width in seconds."""
        return self.window_width_minutes * 60.0


class PoisLinker:
    """Links two datasets with the POIS rarity-weighted co-occurrence score."""

    def __init__(self, config: Optional[PoisConfig] = None) -> None:
        self.config = config or PoisConfig()

    # ------------------------------------------------------------------
    # pipeline composition
    # ------------------------------------------------------------------
    def pipeline_config(self) -> LinkageConfig:
        """POIS's stage choices: exact (Hungarian) matching, no stop
        threshold — every matched pair links, as in the original."""
        return LinkageConfig(matching="hungarian", threshold="none")

    def stages(self) -> List[object]:
        """The stage composition :meth:`link` runs."""
        config = self.pipeline_config()
        width, level = self.config.window_width_seconds, self.config.spatial_level
        return [
            _HistoryPrepare(width, level),
            _PoisCandidates(self.config),
            _PoisScoring(self.config),
            MatchingStage(config),
            ThresholdStage(config),
        ]

    def link(self, left: LocationDataset, right: LocationDataset) -> LinkageReport:
        """Score all co-occurring pairs and link via exact matching, through
        the shared stage pipeline.  ``extras["scores"]`` holds every
        co-occurring pair's score; ``stats.bin_comparisons`` the
        comparisons of the bin join."""
        pipeline = LinkagePipeline(self.pipeline_config(), stages=self.stages())
        return pipeline.run(left, right)


class _PoisCandidates:
    """The bin join: rarity-weighted co-occurrence mass accumulated per
    cross pair; co-occurring pairs are the candidate set."""

    name = STAGE_CANDIDATES

    def __init__(self, config: PoisConfig) -> None:
        self.config = config

    def run(self, context: LinkageContext) -> None:
        level = self.config.spatial_level
        # Per-bin visit counts per side, plus global bin popularity.
        left_bins: Dict[Tuple[int, int], Dict[str, float]] = defaultdict(dict)
        right_bins: Dict[Tuple[int, int], Dict[str, float]] = defaultdict(dict)
        bin_mass: Dict[Tuple[int, int], float] = defaultdict(float)
        total_mass = 0.0
        for entity, history in context.left_histories.items():
            for window in history.windows():
                for cell, count in history.counts_in_window(window, level).items():
                    left_bins[(window, cell)][entity] = float(count)
                    bin_mass[(window, cell)] += count
                    total_mass += count
        for entity, history in context.right_histories.items():
            for window in history.windows():
                for cell, count in history.counts_in_window(window, level).items():
                    right_bins[(window, cell)][entity] = float(count)
                    bin_mass[(window, cell)] += count
                    total_mass += count

        scores: Dict[Tuple[str, str], float] = defaultdict(float)
        comparisons = 0
        for bin_key, left_counts in left_bins.items():
            right_counts = right_bins.get(bin_key)
            if not right_counts:
                continue
            rarity = -math.log(bin_mass[bin_key] / total_mass)
            comparisons += len(left_counts) * len(right_counts)
            for left_entity, left_count in left_counts.items():
                for right_entity, right_count in right_counts.items():
                    scores[(left_entity, right_entity)] += (
                        left_count * right_count * rarity
                    )
        context.candidates = sorted(scores)
        context.stats = SimilarityStats(
            pairs_scored=len(scores), bin_comparisons=comparisons
        )
        context.extras["scores"] = dict(scores)


class _PoisScoring:
    """Positive-evidence edges from the accumulated pair scores."""

    name = STAGE_SCORING

    def __init__(self, config: PoisConfig) -> None:
        self.config = config

    def run(self, context: LinkageContext) -> None:
        scores: Dict[Tuple[str, str], float] = context.extras["scores"]
        context.edges = EdgeSet.from_edges(
            Edge(left_entity, right_entity, value)
            for (left_entity, right_entity), value in scores.items()
            if value > self.config.min_score
        )
