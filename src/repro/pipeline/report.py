"""The unified result every linkage front door returns.

:class:`LinkageReport` is produced by the stage runner
(:class:`~repro.pipeline.runner.LinkagePipeline`) and carries both the
linkage itself and everything the evaluation section reports — whether it
came from the batch pipeline (``LinkagePipeline``), a streaming delta relink
(``StreamingLinker.relink``), or one of the ported baselines.  Stage
timings use the canonical stage names (:data:`~repro.pipeline.stages.STAGE_NAMES`)
for every producer, so timing tables line up across linkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.matching import Edge
from ..core.similarity import SimilarityStats
from ..core.threshold import ThresholdDecision
from ..temporal import Windowing

__all__ = ["LinkageReport"]


@dataclass
class LinkageReport:
    """Everything a linkage run produces.

    Attributes
    ----------
    links:
        The final linkage ``{left entity: right entity}`` — matched pairs
        at or above the stop threshold.
    matched_edges:
        The full matching before thresholding (Fig. 2's histogram is drawn
        over these weights).
    edges:
        All positive-score candidate edges (the bipartite graph), as the
        scoring stage's :class:`~repro.core.matching.EdgeSet`: a
        ``Sequence[Edge]`` (sorted by ``(left, right)`` for the built-in
        stages) whose ``Edge`` rows are built once, on the first read —
        a run that never reads them builds an ``Edge`` only per matched
        edge.  Compares equal to the list of the same rows.
    threshold:
        The stop-threshold decision and its GMM diagnostics.
    candidate_pairs:
        Number of pairs the scoring stage was asked to score.
    stats:
        Similarity-engine counters (bin comparisons, alibi pairs).  For
        baselines without a :class:`~repro.core.similarity.SimilarityEngine`
        the producing stage fills in equivalent counters.
    timings:
        Per-stage wall-clock seconds under the canonical stage names
        (``prepare``, ``candidates``, ``scoring``, ``matching``,
        ``threshold``) — identical keys for every linker.
    shard_timings:
        Per-shard worker seconds for stages that shard their work through
        an execution backend (today the scoring stage; see
        :mod:`repro.exec`).  ``sum(shard_timings[stage])`` against
        ``timings[stage]`` is the realised parallel speedup —
        :func:`repro.eval.reporting.parallel_efficiency_table` renders it.
    stages:
        The stage names that ran, in order.
    extras:
        Producer-specific diagnostics (e.g. the streaming linker's
        relink reuse stats, a baseline's full score matrix, the scoring
        stage's ``executor`` summary).
    """

    links: Dict[str, str]
    matched_edges: List[Edge]
    edges: Sequence[Edge]
    threshold: ThresholdDecision
    candidate_pairs: int
    stats: SimilarityStats
    timings: Dict[str, float]
    windowing: Windowing
    total_windows: int
    stages: Tuple[str, ...] = ()
    shard_timings: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def link_scores(self) -> Dict[Tuple[str, str], float]:
        """Scores of the final links."""
        accepted = {
            (edge.left, edge.right): edge.weight for edge in self.matched_edges
        }
        return {
            (left, right): accepted[(left, right)]
            for left, right in self.links.items()
        }

    @property
    def runtime_seconds(self) -> float:
        """Total wall-clock time across stages."""
        return sum(self.timings.values())
