"""The composable linkage pipeline (Alg. 1 as named, swappable stages).

The paper's Alg. 1 is a staged pipeline — windowing → histories →
candidate filtering → Eq. 2 scoring → matching → stop threshold — and this
package exposes exactly that structure:

* :class:`~repro.pipeline.stages.Stage` — the protocol every stage
  implements (``name`` + ``run(context)``);
* :class:`~repro.pipeline.context.LinkageContext` — the shared mutable
  state stages read and write;
* string-keyed plugin registries
  (:data:`~repro.pipeline.stages.candidate_stages`,
  :data:`~repro.pipeline.stages.matchers`,
  :data:`~repro.pipeline.stages.threshold_methods`) with a
  ``register(name)`` decorator — custom strategies plug in without
  editing ``repro``;
* pluggable execution backends (:mod:`repro.exec`) — the scoring stage
  shards its candidate blocks through the config's ``executor``
  (``"serial"`` / ``"thread"`` / ``"process"``) with bit-identical
  results;
* :class:`~repro.pipeline.config.LinkageConfig` — one serializable
  configuration (``to_dict()`` / ``from_dict()``) shared by batch,
  streaming and the CLI;
* :class:`~repro.pipeline.report.LinkageReport` — the unified result
  every linkage front door returns;
* :class:`~repro.pipeline.runner.LinkagePipeline` — the runner that
  composes stages, times them under canonical names, and assembles the
  report.

Quickstart::

    from repro.pipeline import LinkageConfig, LinkagePipeline

    report = LinkagePipeline(LinkageConfig(threshold="otsu")).run(left, right)
    print(report.links, report.timings)

The baselines' ``link`` runs on this package too.
"""

from ..registry import Registry
from .config import LinkageConfig
from .context import LinkageContext
from .report import LinkageReport
from .runner import LinkagePipeline
from .stages import (
    DENSE_SCORE_BLOCK_SIZE,
    SCORE_BLOCK_SIZE,
    STAGE_CANDIDATES,
    STAGE_MATCHING,
    STAGE_NAMES,
    STAGE_PREPARE,
    STAGE_SCORING,
    STAGE_THRESHOLD,
    BruteForceCandidates,
    CandidateStage,
    LshCandidates,
    MatchingStage,
    PrepareStage,
    ScoringStage,
    Stage,
    TemporalCandidates,
    ThresholdStage,
    candidate_stages,
    matchers,
    resolve_score_block_size,
    threshold_methods,
)

__all__ = [
    "LinkageConfig",
    "LinkageContext",
    "LinkageReport",
    "LinkagePipeline",
    "Registry",
    "Stage",
    "STAGE_NAMES",
    "STAGE_PREPARE",
    "STAGE_CANDIDATES",
    "STAGE_SCORING",
    "STAGE_MATCHING",
    "STAGE_THRESHOLD",
    "SCORE_BLOCK_SIZE",
    "DENSE_SCORE_BLOCK_SIZE",
    "resolve_score_block_size",
    "candidate_stages",
    "matchers",
    "threshold_methods",
    "PrepareStage",
    "CandidateStage",
    "BruteForceCandidates",
    "LshCandidates",
    "TemporalCandidates",
    "ScoringStage",
    "MatchingStage",
    "ThresholdStage",
]
