"""Pipeline stages: the composable units of Alg. 1.

A *stage* is anything with a ``name`` and a ``run(context)`` method (the
:class:`Stage` protocol).  The pipeline of the paper's Alg. 1 decomposes
into five canonical stages — ``prepare`` (windowing + histories + corpus
statistics), ``candidates`` (LSH filtering or brute force), ``scoring``
(Eq. 2 + the MFN alibi pass), ``matching`` (maximum-sum bipartite
matching) and ``threshold`` (the automated stop threshold) — and every
linkage front door in this repo (batch, streaming, baselines) is a
composition of implementations of these stages.

Swappable strategies live in string-keyed registries:

* :data:`candidate_stages` — ``"brute"``, ``"lsh"``, ``"temporal"``, yours;
* :data:`matchers` — ``"greedy"``, ``"hungarian"`` (plus ``"stlink"``
  once :mod:`repro.baselines.stlink` is imported);
* :data:`threshold_methods` — ``"gmm"``, ``"otsu"``, ``"two_means"``,
  ``"none"``.

Registering a custom strategy needs no edits to ``repro``:

>>> from repro.pipeline import candidate_stages, CandidateStage
>>> @candidate_stages.register("every-tenth")
... class EveryTenth(CandidateStage):
...     def generate(self, context):
...         pairs = sorted(
...             (l, r)
...             for l in context.left_histories
...             for r in context.right_histories
...         )
...         return set(pairs[::10])
>>> "every-tenth" in candidate_stages
True
>>> candidate_stages.unregister("every-tenth")  # doctest hygiene
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Sequence, Set, Tuple, runtime_checkable

import numpy as np
from numpy.typing import ArrayLike

from ..core.corpus import HistoryCorpus, content_fingerprint
from ..core.history import build_histories
from ..core.matching import Edge, EdgeSet
from ..core.matching import MATCHERS as _CORE_MATCHERS
from ..core.kernels import (
    DENSE_SCORE_BLOCK_SIZE,
    SCORE_BLOCK_SIZE,
    workload_block_size,
)
from ..core.score_cache import split_codes
from ..core.similarity import SimilarityEngine
from ..core.threshold import (
    ThresholdDecision,
    _keep_every_edge,
    gmm_stop_threshold,
    otsu_threshold,
    two_means_threshold,
)
from ..exec import Executor, create_executor
from ..lsh.index import LshIndex
from ..registry import Registry
from .context import LinkageContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import LinkageConfig

__all__ = [
    "Stage",
    "STAGE_PREPARE",
    "STAGE_CANDIDATES",
    "STAGE_SCORING",
    "STAGE_MATCHING",
    "STAGE_THRESHOLD",
    "STAGE_NAMES",
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
    "no_threshold",
]

#: Canonical stage names — the timing keys every linkage front door emits.
STAGE_PREPARE = "prepare"
STAGE_CANDIDATES = "candidates"
STAGE_SCORING = "scoring"
STAGE_MATCHING = "matching"
STAGE_THRESHOLD = "threshold"
STAGE_NAMES: Tuple[str, ...] = (
    STAGE_PREPARE,
    STAGE_CANDIDATES,
    STAGE_SCORING,
    STAGE_MATCHING,
    STAGE_THRESHOLD,
)


def resolve_score_block_size(
    config: Optional["LinkageConfig"],
    left_corpus: Optional[HistoryCorpus],
    right_corpus: Optional[HistoryCorpus],
) -> int:
    """The candidate-block size the scoring stage should dispatch in: an
    explicit ``config.score_block_size`` wins; otherwise the
    workload-aware choice between :data:`DENSE_SCORE_BLOCK_SIZE` and
    :data:`SCORE_BLOCK_SIZE`
    (:func:`~repro.core.kernels.workload_block_size`; the sparse size
    without corpora to measure)."""
    if config is not None and config.score_block_size > 0:
        return config.score_block_size
    if left_corpus is None or right_corpus is None:
        return SCORE_BLOCK_SIZE
    return workload_block_size(left_corpus, right_corpus)


@runtime_checkable
class Stage(Protocol):
    """Anything the pipeline runner can execute.

    ``name`` keys the stage's wall-clock slot in
    :attr:`~repro.pipeline.context.LinkageContext.timings`; ``run``
    mutates the shared context.
    """

    name: str

    def run(self, context: LinkageContext) -> None:  # pragma: no cover
        ...


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

#: Candidate-generation strategies; entries are factories called with the
#: :class:`~repro.pipeline.config.LinkageConfig` and returning a stage.
candidate_stages: Registry[Callable[["LinkageConfig"], "CandidateStage"]] = (
    Registry("candidate stage")
)

#: Bipartite matchers: ``fn(edges) -> matched edges``.
matchers: Registry[Callable[[Sequence[Edge]], List[Edge]]] = Registry("matcher")

#: Stop-threshold methods: ``fn(weights) -> ThresholdDecision``.
threshold_methods: Registry[
    Callable[[ArrayLike], ThresholdDecision]
] = Registry("threshold method")


for _name, _matcher in _CORE_MATCHERS.items():
    matchers.register(_name)(_matcher)

threshold_methods.register("gmm")(gmm_stop_threshold)
threshold_methods.register("otsu")(otsu_threshold)
threshold_methods.register("two_means")(two_means_threshold)


def no_threshold(weights: ArrayLike) -> ThresholdDecision:
    """The ``"none"`` method: keep every matched edge (what prior work
    implicitly does; the ablation baseline for the stop-threshold
    mechanism)."""
    return _keep_every_edge(np.asarray(weights, dtype=np.float64), "none")


threshold_methods.register("none")(no_threshold)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------
class _HistoryPrepare:
    """Common windowing plus both sides' histories at one spatial level —
    the whole prepare stage of the ST-Link and POIS baselines, and the
    first half of :class:`PrepareStage`."""

    name = STAGE_PREPARE

    def __init__(self, width_seconds: float, level: int) -> None:
        self.width_seconds = width_seconds
        self.level = level

    def run(self, context: LinkageContext) -> None:
        windowing = context.window(self.width_seconds)
        level = self.level
        context.left_histories = build_histories(context.left, windowing, level)
        context.right_histories = build_histories(context.right, windowing, level)


class PrepareStage:
    """Common windowing, mobility histories and corpus statistics.

    Histories are built once at a storage level fine enough for both the
    similarity level and (when configured) the LSH signature level.
    """

    name = STAGE_PREPARE

    def __init__(self, config: "LinkageConfig") -> None:
        self.config = config

    def run(self, context: LinkageContext) -> None:
        config = self.config
        _HistoryPrepare(
            config.similarity.window_width_seconds,
            config.resolved_storage_level(),
        ).run(context)
        level = config.similarity.spatial_level
        if context.score_cache is None:
            context.left_corpus = HistoryCorpus(context.left_histories, level)
            context.right_corpus = HistoryCorpus(context.right_histories, level)
        else:
            # A cache on the context may have been loaded from disk
            # (ScoreCache.save/load): key the corpora by *content*, not by
            # the process-local default tokens, so entries computed by an
            # earlier process over the same data are hits here.
            context.left_corpus = HistoryCorpus(
                context.left_histories,
                level,
                cache_token=(
                    "content",
                    content_fingerprint(context.left_histories, level),
                ),
            )
            context.right_corpus = HistoryCorpus(
                context.right_histories,
                level,
                cache_token=(
                    "content",
                    content_fingerprint(context.right_histories, level),
                ),
            )


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------
class CandidateStage:
    """Base class for candidate generators (the ``LSHFilterPairs`` slot of
    Alg. 1).  Subclasses implement :meth:`generate`, returning either a
    set of pairs or an already-sorted list (a list is taken as sorted and
    saves the scoring stage its determinism re-sort)."""

    name = STAGE_CANDIDATES

    def __init__(self, config: "LinkageConfig" = None) -> None:  # type: ignore[assignment]
        self.config = config

    def generate(self, context: LinkageContext):
        raise NotImplementedError

    def run(self, context: LinkageContext) -> None:
        if context.left_histories is None or context.right_histories is None:
            raise ValueError("candidate stage needs histories on the context")
        context.candidates = self.generate(context)


@candidate_stages.register("brute")
class BruteForceCandidates(CandidateStage):
    """Every cross pair — the right default for correctness-critical
    small runs.

    Emits an already-sorted list (two small per-side sorts plus a
    C-level product) so the scoring stage skips re-sorting the
    quadratic candidate set.
    """

    def generate(self, context: LinkageContext) -> List[Tuple[str, str]]:
        rights = sorted(context.right_histories)
        return [
            (left, right)
            for left in sorted(context.left_histories)
            for right in rights
        ]


@candidate_stages.register("lsh")
class LshCandidates(CandidateStage):
    """The paper's LSH filtering (Sec. 4): dominating-cell signatures,
    banded bucketing; a pair sharing any bucket becomes a candidate.

    The index codes each side by sorted-id position, so its ascending
    pair codes read back as an already-sorted list of id pairs."""

    def generate(self, context: LinkageContext) -> List[Tuple[str, str]]:
        lsh = self.config.lsh
        if lsh is None:
            raise ValueError(
                "candidates='lsh' needs LinkageConfig.lsh to be set"
            )
        index = LshIndex(lsh, lsh.signature_spec(context.total_windows))
        index.add_histories(context.left_histories, context.right_histories)
        context.extras["lsh_stats"] = index.stats
        lefts, rights = split_codes(index.candidate_pairs())
        left_ids = np.array(sorted(context.left_histories), dtype=object)
        right_ids = np.array(sorted(context.right_histories), dtype=object)
        return list(zip(left_ids[lefts].tolist(), right_ids[rights].tolist()))


@candidate_stages.register("temporal")
class TemporalCandidates(CandidateStage):
    """Temporal blocking: a pair is a candidate iff the two histories are
    active in at least one common leaf window.

    The Eq. 2 score of a pair with no common window is exactly zero, so
    this block loses no true links relative to brute force while skipping
    every never-overlapping pair — the cheap, geometry-free counterpart
    to the paper's LSH filter (useful when signatures are not worth
    building, e.g. short observation windows or heavily interleaved
    datasets).
    """

    def generate(self, context: LinkageContext) -> List[Tuple[str, str]]:
        rights_by_window: Dict[int, List[str]] = {}
        for right in sorted(context.right_histories):
            for window in context.right_histories[right].windows():
                rights_by_window.setdefault(window, []).append(right)
        pairs: List[Tuple[str, str]] = []
        for left in sorted(context.left_histories):
            overlapping: Set[str] = set()
            for window in context.left_histories[left].windows():
                bucket = rights_by_window.get(window)
                if bucket:
                    overlapping.update(bucket)
            pairs.extend((left, right) for right in sorted(overlapping))
        return pairs  # sorted by construction


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------
class _ShardClock:
    """The scoring stage's executor as the engine sees it: ``map_blocks``
    passed straight through, each task's worker-side seconds kept for the
    stage's report."""

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self.seconds: List[float] = []

    def map_blocks(self, fn, items, payload=None):
        outcomes = self.executor.map_blocks(fn, items, payload)
        self.seconds.extend(outcome.seconds for outcome in outcomes)
        return outcomes


class ScoringStage:
    """Eq. 2 (with the MFN alibi pass) over the candidate set; keeps the
    positive-score edges (Alg. 1's ``if S > 0``).

    Candidates are sorted (determinism) and scored by
    :meth:`~repro.core.similarity.SimilarityEngine.score_batch`, which
    asks the context's :class:`~repro.core.score_cache.ScoreCache` first
    (the streaming linker attaches its own) and — on the numpy backend —
    cuts what missed into blocks of the
    resolved size (:func:`resolve_score_block_size`) and runs **every
    block as one** :meth:`~repro.exec.Executor.map_blocks` **task**.

    *Which* executor is the config's ``executor`` choice
    (:mod:`repro.exec`), ``"serial"`` included: it is the registry's
    :class:`~repro.exec.SerialExecutor`, so ``retries`` and an injected
    fault plan apply to it exactly as to ``"thread"`` / ``"process"``.
    A candidate set of at most one block *selects* the serial executor —
    it does not select another code path.  Block boundaries are identical
    under every backend and the kernel is dispatch-deterministic (see
    :mod:`repro.core.kernels`), so links, scores and counters are
    **bit-identical** regardless of executor — pinned by
    ``tests/pipeline/test_executors.py``.

    The scalar ``backend="python"`` oracle has no blocks: it is a plain
    loop over the missed pairs that mutates the engine as it goes, so it
    can only run in this process.  It is *one* task of the serial
    executor, whatever executor was named.

    Either way the tasks' worker-side seconds land in
    ``context.shard_timings["scoring"]`` and an ``executor`` summary in
    ``context.extras``.
    """

    name = STAGE_SCORING

    def __init__(self, config: "LinkageConfig") -> None:
        self.config = config

    def run(self, context: LinkageContext) -> None:
        if context.left_corpus is None or context.right_corpus is None:
            raise ValueError("scoring stage needs corpora on the context")
        engine = context.engine
        if engine is None:
            engine = SimilarityEngine(
                context.left_corpus,
                context.right_corpus,
                self.config.similarity,
                score_cache=context.score_cache,
            )
            context.engine = engine
        candidates = context.candidates
        # Lists arrive pre-sorted from their candidate stage; sets (and
        # anything else) are sorted here for determinism.
        ordered = (
            candidates
            if isinstance(candidates, list)
            else sorted(candidates)
        )
        scores = self._dispatch(context, engine.score_batch, ordered)
        context.edges = EdgeSet.from_scores(
            ordered, np.asarray(scores, dtype=np.float64)
        )
        context.stats = engine.stats

    def _dispatch(
        self,
        context: LinkageContext,
        score: Callable[..., object],
        pairs: Sequence[Tuple[str, str]],
    ) -> object:
        """``score(pairs, executor, block_size)`` — one of the engine's
        batch scorers — with this run's executor and resolved block size.
        Records the stage's shard timings and its ``executor`` /
        ``faults`` extras."""
        numpy = self.config.similarity.backend == "numpy"
        block = resolve_score_block_size(
            self.config, context.left_corpus, context.right_corpus
        )
        executor, owned = self._resolve_executor(
            context, numpy and len(pairs) > block
        )
        if owned:
            # Safety net: the pipeline runner releases everything left in
            # here even if this stage's own finally never runs (shutdown
            # is idempotent, so double release is harmless).
            context.owned_executors.append(executor)
        before = executor.stats.fault_summary()
        clock = _ShardClock(executor)
        try:
            result = score(pairs, clock, block)
        finally:
            if owned:
                executor.shutdown()
        context.shard_timings[self.name] = tuple(clock.seconds)
        context.extras["executor"] = {
            "name": executor.name,
            "workers": executor.workers,
            "shards": len(clock.seconds),
        }
        # Delta against the pre-stage snapshot: a borrowed executor may
        # carry fault history from earlier runs.
        faults = {
            key: (value if key == "degraded" else value - before[key])
            for key, value in executor.stats.fault_summary().items()
        }
        if faults["faults"] or faults["task_errors"] or faults["degraded"]:
            context.extras["faults"] = faults
        if faults["degraded"]:
            context.extras["degraded"] = True
        return result

    def _resolve_executor(
        self, context: LinkageContext, fan_out: bool
    ) -> Tuple[Executor, bool]:
        """The executor every scoring task runs through, plus whether
        this stage owns its shutdown.

        ``context.executor`` (caller-provided, borrowed) wins over the
        config (stage-created, owned).  Only work that fans out — more
        than one block's worth of candidates on the numpy backend — gets
        the named backend; anything less selects ``"serial"``.
        """
        provided = context.executor
        if provided is not None and (fan_out or provided.name == "serial"):
            return provided, False
        return (
            create_executor(
                self.config.resolved_executor() if fan_out else "serial",
                self.config.resolved_workers(),
                timeout=self.config.timeout or None,
                retries=self.config.retries,
            ),
            True,
        )


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------
class MatchingStage:
    """Maximum-sum bipartite matching over the positive-score edges,
    dispatched through the :data:`matchers` registry."""

    name = STAGE_MATCHING

    def __init__(self, config: "LinkageConfig") -> None:
        self.config = config
        self.matcher = matchers.get(config.matching)

    def run(self, context: LinkageContext) -> None:
        context.matched_edges = self.matcher(context.edges)


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------
class ThresholdStage:
    """The automated stop threshold over matched edge weights, dispatched
    through the :data:`threshold_methods` registry; keeps the links at or
    above the decision."""

    name = STAGE_THRESHOLD

    def __init__(self, config: "LinkageConfig") -> None:
        self.config = config
        self.method = threshold_methods.get(config.threshold)

    def run(self, context: LinkageContext) -> None:
        matched = context.matched_edges
        weights = np.array([edge.weight for edge in matched], dtype=np.float64)
        # No matched edges: every method degenerates to the floor.
        method = self.method if weights.size else no_threshold
        decision = method(weights)
        context.threshold = decision
        context.links = {
            edge.left: edge.right
            for edge in matched
            if edge.weight >= decision.threshold
        }
