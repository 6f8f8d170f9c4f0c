"""The shared mutable state a pipeline's stages read and write.

One :class:`LinkageContext` travels through the stage sequence of a
:class:`~repro.pipeline.runner.LinkagePipeline`.  Each stage consumes what
earlier stages produced and deposits its own output; the runner turns the
final state into a :class:`~repro.pipeline.report.LinkageReport`.

The canonical dataflow (Alg. 1):

========== ========================================== =====================
stage      reads                                      writes
========== ========================================== =====================
prepare    ``left``/``right`` datasets, ``config``    windowing, histories,
                                                      corpora
candidates histories, ``total_windows``               ``candidates``
scoring    corpora, ``candidates``, ``score_cache``   ``engine``, ``edges``
                                                      (an ``EdgeSet``:
                                                      columns, no ``Edge``
                                                      per row), ``stats``
matching   ``edges`` (greedy: the columns)            ``matched_edges``
                                                      (``Edge`` rows)
threshold  ``matched_edges`` (weights as one array)   ``threshold``, ``links``
========== ========================================== =====================

A producer with pre-existing state (the streaming linker's live corpora,
a baseline's own history build) pre-populates the relevant fields and runs
only the stages it needs — that is the whole point of making the context
explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Dict, List, Optional, Sequence, Tuple

from ..core.corpus import HistoryCorpus
from ..core.history import MobilityHistory
from ..core.matching import Edge
from ..core.score_cache import ScoreCache
from ..core.similarity import SimilarityEngine, SimilarityStats
from ..core.threshold import ThresholdDecision
from ..data.records import LocationDataset
from ..temporal import Windowing, common_windowing
from .report import LinkageReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec import Executor
    from .config import LinkageConfig

__all__ = ["LinkageContext"]


@dataclass
class LinkageContext:
    """Mutable blackboard shared by the stages of one linkage run."""

    config: "LinkageConfig"
    left: Optional[LocationDataset] = None
    right: Optional[LocationDataset] = None

    # prepare
    windowing: Optional[Windowing] = None
    total_windows: int = 0
    left_histories: Optional[Dict[str, MobilityHistory]] = None
    right_histories: Optional[Dict[str, MobilityHistory]] = None
    left_corpus: Optional[HistoryCorpus] = None
    right_corpus: Optional[HistoryCorpus] = None

    # candidates
    #: Candidate pairs — a set, or an already-sorted list (see
    #: :class:`~repro.pipeline.stages.CandidateStage`).
    candidates: Collection[Tuple[str, str]] = field(default_factory=set)

    # scoring
    score_cache: Optional[ScoreCache] = None
    #: Caller-provided execution backend (see :mod:`repro.exec`).  ``None``
    #: lets the scoring stage build one from the config; a non-serial
    #: executor placed here is borrowed (the caller shuts it down),
    #: letting repeated runs share one worker pool.
    executor: Optional["Executor"] = None
    #: Executors a *stage* built for itself during this run.  The runner
    #: shuts every one of them down in a ``finally`` — the guarantee that
    #: a stage raising mid-dispatch cannot leak a worker pool (shutdown
    #: is idempotent, so stages may also release their own eagerly).
    owned_executors: List["Executor"] = field(default_factory=list)
    engine: Optional[SimilarityEngine] = None
    #: The positive-score edges: an :class:`~repro.core.matching.EdgeSet`
    #: from the scoring stages (any ``Sequence[Edge]`` is accepted).
    edges: Sequence[Edge] = field(default_factory=list)
    stats: Optional[SimilarityStats] = None

    # matching + threshold
    matched_edges: List[Edge] = field(default_factory=list)
    threshold: Optional[ThresholdDecision] = None
    links: Dict[str, str] = field(default_factory=dict)

    # bookkeeping
    timings: Dict[str, float] = field(default_factory=dict)
    #: Per-shard wall-clock seconds of stages that shard their work
    #: (today: ``"scoring"``) — the raw series behind
    #: :func:`repro.eval.reporting.parallel_efficiency_table`.
    shard_timings: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    stage_names: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def window(self, width_seconds: float) -> Windowing:
        """Set (and return) the common windowing of ``left`` and ``right``
        at ``width_seconds`` plus ``total_windows`` — the prelude of every
        prepare stage."""
        left, right = self.left, self.right
        if left is None or right is None:
            raise ValueError("prepare stage needs both datasets on the context")
        self.windowing = common_windowing(
            (left.time_range(), right.time_range()), width_seconds
        )
        latest = max(left.time_range()[1], right.time_range()[1])
        self.total_windows = self.windowing.index_of(latest) + 1
        return self.windowing

    def release_executors(self) -> None:
        """Shut down every stage-owned executor (idempotent; borrowed
        ``executor`` is the caller's to release)."""
        while self.owned_executors:
            self.owned_executors.pop().shutdown()

    def report(self) -> LinkageReport:
        """Assemble the :class:`~repro.pipeline.report.LinkageReport` from
        the current state (called by the runner after the last stage)."""
        if self.threshold is None:
            raise ValueError(
                "cannot build a report before a threshold stage has run"
            )
        if self.windowing is None:
            raise ValueError("cannot build a report without a windowing")
        stats = self.stats
        if stats is None:
            stats = self.engine.stats if self.engine else SimilarityStats()
        return LinkageReport(
            links=self.links,
            matched_edges=self.matched_edges,
            edges=self.edges,
            threshold=self.threshold,
            candidate_pairs=len(self.candidates),
            stats=stats,
            timings=self.timings,
            shard_timings=self.shard_timings,
            windowing=self.windowing,
            total_windows=self.total_windows,
            stages=tuple(self.stage_names),
            extras=self.extras,
        )
