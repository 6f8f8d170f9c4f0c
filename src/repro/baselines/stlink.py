"""ST-Link baseline (Basık et al., IEEE TMC 2018 — the paper's ref [3]).

ST-Link performs a sliding-window comparison over record streams and links
an entity pair when it has

* at least ``k`` *co-occurring* records (same temporal window, same grid
  cell),
* across at least ``l`` *diverse* locations (distinct cells among the
  co-occurrences),
* and at most ``alibi_tolerance`` alibi window pairs (same window, farther
  apart than the runaway distance) — the comparison experiments of the SLIM
  paper run ST-Link with tolerance 3.

``k`` and ``l`` are not supervised: they are read off the knee of the
distribution of per-pair co-occurrence and diversity counts, the trade-off
procedure described in ref [3] (we reuse the Kneedle detector).

If an entity satisfies the link conditions against *more than one* entity
from the other dataset, all of its candidate pairs are considered ambiguous
and dropped — ST-Link has no scoring-based disambiguation, which is exactly
the weakness Fig. 11b exposes at low record counts.  That ambiguity rule is
registered as the ``"stlink"`` strategy in the pipeline's matcher registry
(:data:`repro.pipeline.matchers`), so :meth:`StLinkLinker.link` runs
through the *same* stage pipeline as every other linker.

For hit-precision ranking, pairs are ordered by co-occurrence count (ties
broken by diversity).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.elbow import kneedle_index
from ..core.history import MobilityHistory
from ..core.matching import Edge, EdgeSet
from ..core.proximity import DEFAULT_MAX_SPEED_MPS, runaway_distance
from ..core.similarity import SimilarityStats
from ..data.records import LocationDataset
from ..geo.cell import CellId
from ..pipeline import (
    STAGE_CANDIDATES,
    STAGE_SCORING,
    LinkageConfig,
    LinkageContext,
    LinkagePipeline,
    LinkageReport,
    MatchingStage,
    ThresholdStage,
    matchers,
)
from ..pipeline.stages import _HistoryPrepare

__all__ = [
    "StLinkConfig",
    "StLinkLinker",
    "stlink_ambiguity_matching",
    "ambiguous_entities",
]


def ambiguous_entities(qualified: Sequence[Edge]) -> Set[str]:
    """Entities appearing in more than one qualified pair — the single
    source of truth for ST-Link's ambiguity rule, shared by the
    ``"stlink"`` matcher and the report's ``ambiguous_entities``."""
    qualified = EdgeSet.from_edges(qualified)
    return {
        entity
        for column in (qualified.left, qualified.right)
        for entity, degree in Counter(column).items()
        if degree > 1
    }


def stlink_ambiguity_matching(edges: Sequence[Edge]) -> List[Edge]:
    """ST-Link's "matcher": keep a qualified pair only when *neither*
    endpoint appears in any other qualified pair (no scoring-based
    disambiguation — ambiguous entities drop out entirely)."""
    edges = EdgeSet.from_edges(edges)
    ambiguous = ambiguous_entities(edges)
    return [
        edge
        for edge in edges
        if edge.left not in ambiguous and edge.right not in ambiguous
    ]


if "stlink" not in matchers:
    matchers.register("stlink")(stlink_ambiguity_matching)


@dataclass(frozen=True)
class StLinkConfig:
    """ST-Link parameters.

    ``k`` / ``l`` default to ``None`` = auto-detect via the knee of the
    respective count distributions.
    """

    window_width_minutes: float = 15.0
    spatial_level: int = 12
    max_speed_mps: float = DEFAULT_MAX_SPEED_MPS
    alibi_tolerance: int = 3
    k: Optional[int] = None
    l: Optional[int] = None
    min_candidate_cooccurrences: int = 1

    def __post_init__(self) -> None:
        if self.window_width_minutes <= 0:
            raise ValueError("window width must be positive")
        if self.alibi_tolerance < 0:
            raise ValueError("alibi tolerance must be non-negative")

    @property
    def window_width_seconds(self) -> float:
        """Window width in seconds."""
        return self.window_width_minutes * 60.0


class StLinkLinker:
    """Links two datasets with the ST-Link co-occurrence procedure."""

    def __init__(self, config: Optional[StLinkConfig] = None) -> None:
        self.config = config or StLinkConfig()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cooccurrences(
        self,
        left_histories: Dict[str, MobilityHistory],
        right_histories: Dict[str, MobilityHistory],
    ) -> Tuple[Dict[Tuple[str, str], int], Dict[Tuple[str, str], Set[int]], int]:
        """Count same-window/same-cell co-occurrences via an inverted index
        over (window, cell) bins."""
        level = self.config.spatial_level
        index: Dict[Tuple[int, int], Tuple[List[str], List[str]]] = defaultdict(
            lambda: ([], [])
        )
        for entity, history in left_histories.items():
            for window, cells in history.bins(level).items():
                for cell in cells:
                    index[(window, cell)][0].append(entity)
        for entity, history in right_histories.items():
            for window, cells in history.bins(level).items():
                for cell in cells:
                    index[(window, cell)][1].append(entity)

        counts: Dict[Tuple[str, str], int] = defaultdict(int)
        locations: Dict[Tuple[str, str], Set[int]] = defaultdict(set)
        comparisons = 0
        for (window, cell), (lefts, rights) in index.items():
            if not lefts or not rights:
                continue
            comparisons += len(lefts) * len(rights)
            for left_entity in lefts:
                for right_entity in rights:
                    pair = (left_entity, right_entity)
                    counts[pair] += 1
                    locations[pair].add(cell)
        return dict(counts), dict(locations), comparisons

    def _alibi_count(
        self,
        left_history: MobilityHistory,
        right_history: MobilityHistory,
        runaway: float,
        distance_cache: Dict[Tuple[int, int], float],
    ) -> Tuple[int, int]:
        """Number of common windows whose farthest cross pair exceeds the
        runaway distance; also returns the comparisons spent."""
        level = self.config.spatial_level
        bins_left = left_history.bins(level)
        bins_right = right_history.bins(level)
        if len(bins_left) > len(bins_right):
            bins_left, bins_right = bins_right, bins_left
        alibis = 0
        comparisons = 0
        for window, cells_a in bins_left.items():
            cells_b = bins_right.get(window)
            if cells_b is None:
                continue
            worst = 0.0
            for cell_a in cells_a:
                for cell_b in cells_b:
                    comparisons += 1
                    if cell_a == cell_b:
                        continue
                    key = (
                        (cell_a, cell_b) if cell_a < cell_b else (cell_b, cell_a)
                    )
                    cached = distance_cache.get(key)
                    if cached is None:
                        cached = CellId(key[0]).distance_meters(CellId(key[1]))
                        distance_cache[key] = cached
                    if cached > worst:
                        worst = cached
            if worst > runaway:
                alibis += 1
        return alibis, comparisons

    @staticmethod
    def _knee_threshold(values: List[int]) -> int:
        """Auto-detect a count threshold (ref [3]'s trade-off point).

        For each candidate threshold ``t``, count how many pairs reach it
        (the CCDF of the per-pair counts).  The curve drops steeply while
        ``t`` still separates noise pairs and flattens once only genuinely
        co-occurring pairs remain; the knee of that curve is the threshold.
        """
        if not values:
            return 1
        unique = sorted(set(values))
        if len(unique) < 3:
            return max(1, unique[-1])
        ordered = sorted(values)
        total = len(ordered)
        # pairs_reaching[i] = #values >= unique[i], via bisect on the sorted list.
        import bisect

        pairs_reaching = [
            total - bisect.bisect_left(ordered, threshold) for threshold in unique
        ]
        knee = kneedle_index(
            unique, pairs_reaching, curve="convex", direction="decreasing"
        )
        return max(1, unique[knee])

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def pipeline_config(self) -> LinkageConfig:
        """The stage choices ST-Link plugs into the shared pipeline:
        ambiguity-drop "matching", no stop threshold."""
        return LinkageConfig(matching="stlink", threshold="none")

    def stages(self) -> List[object]:
        """The stage composition :meth:`link` runs."""
        config = self.pipeline_config()
        width, level = self.config.window_width_seconds, self.config.spatial_level
        return [
            _HistoryPrepare(width, level),
            _StLinkCandidates(self),
            _StLinkScoring(self),
            MatchingStage(config),
            ThresholdStage(config),
        ]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def link(self, left: LocationDataset, right: LocationDataset) -> LinkageReport:
        """Run ST-Link through the shared stage pipeline.

        ``stats.bin_comparisons`` counts the work *this* implementation
        performs (it blocks co-occurrence counting behind an inverted
        index, a substantial optimisation over the original).  The
        report's ``extras`` carry the ST-Link diagnostics: ``k``, ``l``,
        every co-occurring pair's ``scores`` and ``diversity``, the
        ``ambiguous_entities``, ``candidates_considered``, and
        ``window_join_comparisons`` — the record-pair count of the
        original's sliding-window comparison (every cross-dataset record
        pair sharing a temporal window), the cost model behind the paper's
        "three orders of magnitude" comparison (Fig. 11d).
        """
        pipeline = LinkagePipeline(self.pipeline_config(), stages=self.stages())
        return pipeline.run(left, right)


class _StLinkCandidates:
    """Co-occurrence counting via the inverted (window, cell) index; the
    co-occurring pairs are ST-Link's candidate set."""

    name = STAGE_CANDIDATES

    def __init__(self, linker: "StLinkLinker") -> None:
        self.linker = linker

    def run(self, context: LinkageContext) -> None:
        counts, locations, comparisons = self.linker._cooccurrences(
            context.left_histories, context.right_histories
        )
        context.candidates = sorted(counts)
        context.stats = SimilarityStats(
            pairs_scored=len(counts), bin_comparisons=comparisons
        )
        context.extras["counts"] = counts
        context.extras["locations"] = locations


class _StLinkScoring:
    """k/l knee detection, alibi screening, and the co-occurrence score
    (count, diversity as the tie-break decimal)."""

    name = STAGE_SCORING

    def __init__(self, linker: "StLinkLinker") -> None:
        self.linker = linker

    def run(self, context: LinkageContext) -> None:
        linker = self.linker
        config = linker.config
        counts: Dict[Tuple[str, str], int] = context.extras["counts"]
        locations: Dict[Tuple[str, str], Set[int]] = context.extras["locations"]
        stats = context.stats

        k = config.k if config.k is not None else linker._knee_threshold(
            list(counts.values())
        )
        l = config.l if config.l is not None else linker._knee_threshold(
            [len(cells) for cells in locations.values()]
        )

        runaway = runaway_distance(
            config.window_width_seconds, config.max_speed_mps
        )
        distance_cache: Dict[Tuple[int, int], float] = {}
        scores = {
            pair: float(count) + len(locations[pair]) / 1_000.0
            for pair, count in counts.items()
        }
        edges: List[Edge] = []
        candidates_considered = 0
        for pair in context.candidates:
            count = counts[pair]
            if count < max(k, config.min_candidate_cooccurrences):
                continue
            if len(locations[pair]) < l:
                continue
            candidates_considered += 1
            alibis, spent = linker._alibi_count(
                context.left_histories[pair[0]],
                context.right_histories[pair[1]],
                runaway,
                distance_cache,
            )
            stats.bin_comparisons += spent
            if alibis <= config.alibi_tolerance:
                edges.append(Edge(pair[0], pair[1], scores[pair]))

        # Cost of the original's sliding-window comparison: sum over windows
        # of (left records in window) x (right records in window).
        left_per_window: Dict[int, int] = defaultdict(int)
        right_per_window: Dict[int, int] = defaultdict(int)
        for history in context.left_histories.values():
            for window in history.windows():
                left_per_window[window] += history.records_in_window(window)
        for history in context.right_histories.values():
            for window in history.windows():
                right_per_window[window] += history.records_in_window(window)
        window_join = sum(
            count * right_per_window.get(window, 0)
            for window, count in left_per_window.items()
        )

        context.edges = EdgeSet.from_edges(edges)
        context.extras.update(
            k=k,
            l=l,
            candidates_considered=candidates_considered,
            diversity={pair: len(cells) for pair, cells in locations.items()},
            window_join_comparisons=window_join,
            scores=scores,
            ambiguous_entities=ambiguous_entities(context.edges),
        )
