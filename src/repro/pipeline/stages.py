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
* :data:`matchers` — ``"greedy"``, ``"hungarian"``, ``"networkx"``
  (plus ``"stlink"`` once :mod:`repro.baselines.stlink` is imported);
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

import os
from itertools import chain
# repro-lint: timing-module -- stages time their own execution for the report
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Sequence, Set, Tuple, runtime_checkable

from ..core.corpus import HistoryCorpus, content_fingerprint
from ..core.history import build_histories
from ..core.matching import Edge
from ..core.matching import MATCHERS as _CORE_MATCHERS
from ..core.similarity import SimilarityEngine
from ..core.threshold import (
    ThresholdDecision,
    gmm_stop_threshold,
    otsu_threshold,
    two_means_threshold,
)
from ..exec import Executor, create_executor, raise_on_task_errors
from ..lsh.index import LshIndex
from ..registry import Registry
from ..temporal import common_windowing
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
    "score_pair_block",
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

#: Candidate pairs scored per batch-kernel dispatch.  Bounds the peak size
#: of the kernel's per-shape tensors while still amortising the vectorized
#: work over thousands of (pair, window) interactions.  This is the
#: *sparse-workload* default; see :func:`resolve_score_block_size` for the
#: workload-aware choice the scoring stage actually makes.
SCORE_BLOCK_SIZE = 4096

#: Block size for *dense* corpora (multiple cells per active window on
#: both sides).  Dense windows produce matrix-shaped interactions that the
#: kernel pads into square power-of-two buckets; the padded tensor volume
#: grows superlinearly with the number of pairs in a block, so smaller
#: blocks are ~3-4x faster there (measured on the cab workload, PR 4).
DENSE_SCORE_BLOCK_SIZE = 512

#: A pair of corpora counts as dense when the product of their mean
#: distinct-cells-per-active-window exceeds this (e.g. both sides
#: averaging >= 2 cells per window): most common windows then form
#: matrices rather than vectors.
_DENSE_CELLS_PRODUCT = 4.0


def resolve_score_block_size(
    config: Optional["LinkageConfig"],
    left_corpus: Optional[HistoryCorpus],
    right_corpus: Optional[HistoryCorpus],
) -> int:
    """The candidate-block size the scoring stage should dispatch in.

    Resolution order: an explicit ``config.score_block_size`` wins; then
    the ``REPRO_SCORE_BLOCK_SIZE`` environment override; otherwise a
    workload-aware heuristic — dense corpora (mean cells per active
    window multiply beyond :data:`_DENSE_CELLS_PRODUCT`) get
    :data:`DENSE_SCORE_BLOCK_SIZE`, sparse ones the classic
    :data:`SCORE_BLOCK_SIZE`.  The choice never affects results (kernel
    dispatch determinism — pinned by
    ``tests/pipeline/test_block_size.py``), only tensor footprints and
    wall-clock.
    """
    if config is not None and config.score_block_size > 0:
        return config.score_block_size
    env = os.environ.get("REPRO_SCORE_BLOCK_SIZE")
    if env:
        try:
            size = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_SCORE_BLOCK_SIZE must be an integer, got {env!r}"
            ) from None
        if size < 1:
            raise ValueError(
                f"REPRO_SCORE_BLOCK_SIZE must be positive, got {env!r}"
            )
        return size
    if left_corpus is None or right_corpus is None:
        return SCORE_BLOCK_SIZE
    density = (
        left_corpus.avg_cells_per_window()
        * right_corpus.avg_cells_per_window()
    )
    if density >= _DENSE_CELLS_PRODUCT:
        # min() keeps an explicitly lowered module default (tests and
        # benches monkeypatch SCORE_BLOCK_SIZE to force sharding) binding.
        return min(DENSE_SCORE_BLOCK_SIZE, SCORE_BLOCK_SIZE)
    return SCORE_BLOCK_SIZE


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
    Callable[[Sequence[float]], ThresholdDecision]
] = Registry("threshold method")


for _name, _matcher in _CORE_MATCHERS.items():
    matchers.register(_name)(_matcher)

threshold_methods.register("gmm")(gmm_stop_threshold)
threshold_methods.register("otsu")(otsu_threshold)
threshold_methods.register("two_means")(two_means_threshold)


def no_threshold(weights: Sequence[float]) -> ThresholdDecision:
    """The ``"none"`` method: keep every matched edge (what prior work
    implicitly does; the ablation baseline for the stop-threshold
    mechanism)."""
    floor = min(weights, default=0.0)
    return ThresholdDecision(
        threshold=floor,
        method="none",
        expected_precision=float("nan"),
        expected_recall=float("nan"),
        expected_f1=float("nan"),
    )


threshold_methods.register("none")(no_threshold)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------
class PrepareStage:
    """Common windowing, mobility histories and corpus statistics.

    Histories are built once at a storage level fine enough for both the
    similarity level and (when configured) the LSH signature level.
    """

    name = STAGE_PREPARE

    def __init__(self, config: "LinkageConfig") -> None:
        self.config = config

    def run(self, context: LinkageContext) -> None:
        left, right = context.left, context.right
        if left is None or right is None:
            raise ValueError("prepare stage needs both datasets on the context")
        config = self.config
        windowing = common_windowing(
            (left.time_range(), right.time_range()),
            config.similarity.window_width_seconds,
        )
        latest = max(left.time_range()[1], right.time_range()[1])
        context.windowing = windowing
        context.total_windows = windowing.index_of(latest) + 1

        storage = config.resolved_storage_level()
        context.left_histories = build_histories(left, windowing, storage)
        context.right_histories = build_histories(right, windowing, storage)
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
    banded bucketing; a pair sharing any bucket becomes a candidate."""

    def generate(self, context: LinkageContext) -> Set[Tuple[str, str]]:
        lsh = self.config.lsh
        if lsh is None:
            raise ValueError(
                "candidates='lsh' needs LinkageConfig.lsh to be set"
            )
        index = LshIndex(lsh, lsh.signature_spec(context.total_windows))
        index.add_histories(context.left_histories, context.right_histories)
        context.extras["lsh_stats"] = index.stats
        return index.candidate_pairs()


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
def score_pair_block(payload, item):
    """Executor task: one block of candidate pairs through the batch
    kernel.

    Module-level so the ``"process"`` backend can pickle it by reference;
    ``payload`` is the ``(left corpus, right corpus)`` pair shipped once
    per worker (by fork inheritance on Linux), ``item`` the
    ``(pairs, config)`` block.
    """
    from ..core.kernels import score_pairs_batch

    left_corpus, right_corpus = payload
    pairs, config = item
    return score_pairs_batch(left_corpus, right_corpus, pairs, config)


class ScoringStage:
    """Eq. 2 (with the MFN alibi pass) over the candidate set; keeps the
    positive-score edges (Alg. 1's ``if S > 0``).

    Candidates are sorted (determinism) and scored in shards of the
    resolved block size (:func:`resolve_score_block_size` — explicit
    config, environment override, or the workload-aware density
    heuristic) through
    :meth:`~repro.core.similarity.SimilarityEngine.score_batch`.  When the
    context carries a :class:`~repro.core.score_cache.ScoreCache` (the
    streaming linker attaches its own), the engine serves cache hits
    without touching the kernel.

    *How* the shards run is the config's ``executor`` choice
    (:mod:`repro.exec`): under ``"serial"`` they run in-process, one after
    the other — the parity oracle; under ``"thread"`` / ``"process"``
    kernel dispatches fan out through the backend, with cache lookups,
    stores and normalisation staying in this process.  Shard boundaries
    are identical under every backend and the kernel is
    dispatch-deterministic (see :mod:`repro.core.kernels`), so links,
    scores and counters are **bit-identical** regardless of executor —
    pinned by ``tests/pipeline/test_executors.py``.  The scalar
    ``backend="python"`` oracle always runs serially.  Per-shard
    wall-clock seconds land in ``context.shard_timings["scoring"]`` and an
    ``executor`` summary in ``context.extras``.
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
        scores = self._score_blocks(context, engine.score_batch, ordered)
        context.edges = [
            Edge(left_entity, right_entity, score)
            for (left_entity, right_entity), score in zip(
                ordered, chain.from_iterable(scores)
            )
            if score > 0.0
        ]
        context.stats = engine.stats

    def _score_blocks(
        self,
        context: LinkageContext,
        score: Callable[..., object],
        ordered: Sequence[Tuple[str, str]],
    ) -> List[object]:
        """Run ``score`` — an engine's block scorer, called as
        ``score(pairs)`` or ``score(pairs, dispatch=...)`` — over
        ``ordered`` in shards of the resolved block size through the
        configured executor; returns its results in order.  Records the
        stage's shard timings and its ``executor`` / ``faults`` extras.
        """
        block = resolve_score_block_size(
            self.config, context.left_corpus, context.right_corpus
        )
        executor, owned = self._resolve_executor(context, len(ordered), block)
        if owned:
            # Safety net: the pipeline runner releases everything left in
            # here even if this stage's own finally never runs (shutdown
            # is idempotent, so double release is harmless).
            context.owned_executors.append(executor)
        before = executor.stats.fault_summary() if executor is not None else None
        shard_seconds: List[float] = []
        try:
            if executor is not None:
                results = self._score_parallel(
                    context, score, ordered, executor, shard_seconds, block
                )
            else:
                results = self._score_serial(
                    score, ordered, shard_seconds, block
                )
        finally:
            if owned:
                executor.shutdown()
        context.shard_timings[self.name] = tuple(shard_seconds)
        context.extras["executor"] = {
            "name": executor.name if executor is not None else "serial",
            "workers": executor.workers if executor is not None else 1,
            "shards": len(shard_seconds),
        }
        if executor is not None:
            after = executor.stats.fault_summary()
            # Delta against the pre-stage snapshot: a borrowed executor
            # may carry fault history from earlier runs.
            faults = {
                key: (value if key == "degraded" else value - before[key])
                for key, value in after.items()
            }
            if faults["faults"] or faults["task_errors"] or faults["degraded"]:
                context.extras["faults"] = faults
            if faults["degraded"]:
                context.extras["degraded"] = True
        return results

    # ------------------------------------------------------------------
    # execution strategies
    # ------------------------------------------------------------------
    def _resolve_executor(
        self, context: LinkageContext, candidate_count: int, block: int
    ) -> Tuple[Optional[Executor], bool]:
        """The executor to shard through, or ``None`` for the serial
        in-process path, plus whether this stage owns its shutdown.

        Parallel dispatch needs the numpy backend (the scalar oracle is
        serial by definition) and more than one shard's worth of
        candidates; ``context.executor`` (caller-provided, borrowed) wins
        over the config (stage-created, owned).
        """
        if (
            self.config.similarity.backend != "numpy"
            or candidate_count <= block
        ):
            return None, False
        provided = context.executor
        if provided is not None:
            return (provided, False) if provided.name != "serial" else (None, False)
        name = self.config.resolved_executor()
        if name == "serial":
            return None, False
        return (
            create_executor(
                name,
                self.config.resolved_workers(),
                timeout=self.config.timeout or None,
                retries=self.config.retries,
            ),
            True,
        )

    def _score_serial(
        self,
        score: Callable[..., object],
        ordered: Sequence[Tuple[str, str]],
        shard_seconds: List[float],
        block: int,
    ) -> List[object]:
        """The in-process path (exactly the pre-executor behaviour)."""
        results: List[object] = []
        for start in range(0, len(ordered), block):
            chunk = ordered[start : start + block]
            clock = time.perf_counter()
            results.append(score(chunk))
            shard_seconds.append(time.perf_counter() - clock)
        return results

    def _score_parallel(
        self,
        context: LinkageContext,
        score: Callable[..., object],
        ordered: Sequence[Tuple[str, str]],
        executor: Executor,
        shard_seconds: List[float],
        block: int,
    ) -> List[object]:
        """One cache-aware ``score`` call whose kernel dispatches shard
        out through the executor."""
        from ..core.kernels import concat_results

        left_corpus, right_corpus = context.left_corpus, context.right_corpus
        # Materialise the array views up front: thread workers must not
        # race the lazy build, and process workers should inherit the
        # arrays through fork rather than each rebuilding them.
        left_corpus.arrays()
        right_corpus.arrays()

        def dispatch(pairs, config):
            blocks = [
                pairs[start : start + block]
                for start in range(0, len(pairs), block)
            ]
            outcomes = executor.map_blocks(
                score_pair_block,
                [(block, config) for block in blocks],
                payload=(left_corpus, right_corpus),
            )
            # The dispatch itself always completes (pools released, good
            # shards kept); only a block that failed past its retry
            # budget *and* the inline fallback aborts the stage — as a
            # clean, descriptive error instead of a poisoned result.
            raise_on_task_errors(outcomes, "scoring")
            shard_seconds.extend(outcome.seconds for outcome in outcomes)
            return concat_results([outcome.value for outcome in outcomes])

        return [score(ordered, dispatch=dispatch)]


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
        if not matched:
            # No matched edges: every method degenerates to the floor.
            decision = no_threshold([])
        else:
            decision = self.method([edge.weight for edge in matched])
        context.threshold = decision
        context.links = {
            edge.left: edge.right
            for edge in matched
            if edge.weight >= decision.threshold
        }
