"""One serializable configuration for every linkage front door.

:class:`LinkageConfig` composes the similarity knobs
(:class:`~repro.core.similarity.SimilarityConfig`), the optional LSH
filter (:class:`~repro.lsh.index.LshConfig`), the pipeline's stage
choices (candidate generator, matcher, stop-threshold method) and the
execution backend (``executor`` / ``workers``, see :mod:`repro.exec`) into a
single object shared by the batch pipeline, the streaming linker and the
auto-tuning sweeps — and round-trips through plain dicts / JSON:

>>> config = LinkageConfig(matching="hungarian", threshold="otsu")
>>> LinkageConfig.from_dict(config.to_dict()) == config
True
>>> LinkageConfig.from_dict({"matchign": "greedy"})
Traceback (most recent call last):
    ...
ValueError: unknown LinkageConfig field 'matchign'; known fields: ['candidates', 'executor', 'lsh', 'matching', 'retention', 'retention_window', 'retries', 'score_block_size', 'serve_backpressure', 'serve_queue_depth', 'similarity', 'storage_level', 'threshold', 'timeout', 'workers']

Stage choices are validated against the pipeline registries at
construction time, so a custom strategy must be registered (see
:mod:`repro.pipeline.stages`) *before* a config naming it is built —
which is the natural order anyway.

Every knob is declared once, on its field (see :mod:`repro.knobs`): type
and range validation, ``from_dict`` and the ``slim-link`` flags are all
derived from that declaration, here and in the nested configs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from ..core.retention import retention_policies
from ..core.similarity import SimilarityConfig
from ..exec import (
    AUTO_EXECUTOR,
    executors,
    resolve_executor_name,
    resolve_worker_count,
)
from ..exec.backends import DEFAULT_RETRIES
from ..knobs import from_dict, knob, validate
from ..lsh.index import LshConfig
from .stages import candidate_stages, matchers, threshold_methods

__all__ = ["LinkageConfig"]

#: ``candidates`` value meaning "lsh when an LshConfig is present, else
#: brute force" — the right default for configs that toggle LSH on and off.
AUTO_CANDIDATES = "auto"

#: Valid ``serve_backpressure`` policies: ``"block"`` makes a full ingest
#: queue await capacity, ``"reject"`` fails the submit immediately with
#: :class:`repro.serve.BackpressureError`.  Defined here (not in
#: :mod:`repro.serve`) so the config layer stays import-cycle-free.
SERVE_BACKPRESSURE_POLICIES = ("block", "reject")


@dataclass(frozen=True)
class LinkageConfig:
    """Full pipeline configuration.

    Attributes
    ----------
    similarity:
        Knobs of the Eq. 2 score (window width, spatial level, backend...).
    lsh:
        ``None`` disables LSH filtering (brute-force candidate set); an
        :class:`~repro.lsh.index.LshConfig` enables it.
    candidates:
        Candidate-stage name in the
        :data:`~repro.pipeline.stages.candidate_stages` registry, or
        ``"auto"`` (``"lsh"`` when ``lsh`` is set, else ``"brute"``).
    matching:
        Matcher name in :data:`~repro.pipeline.stages.matchers`
        (``"greedy"`` is the paper's).
    threshold:
        Stop-threshold method in
        :data:`~repro.pipeline.stages.threshold_methods` (``"gmm"`` is the
        paper's; ``"none"`` keeps every matched edge).
    storage_level:
        History storage level; ``None`` = the finest level any stage needs.
    executor:
        Execution backend in the :data:`~repro.exec.executors` registry
        (``"serial"``, ``"thread"``, ``"process"``, yours), or ``"auto"``
        (the ``REPRO_EXECUTOR`` environment override when set, else
        ``"serial"``).  Drives the scoring stage's shard fan-out; the
        sweep helpers accept the same names.
    workers:
        Worker count for parallel backends; ``0`` = ``REPRO_WORKERS``
        when set, else the machine's CPU count.
    retention:
        Entity-retirement policy in the
        :data:`~repro.core.retention.retention_policies` registry
        (``"none"``, ``"sliding_window"``, ``"max_entities"``, yours).
        Applied by :class:`~repro.core.streaming.StreamingLinker` ahead
        of every relink; the batch pipeline ignores it (a one-shot run
        has no stream to bound).
    retention_window:
        The retention policy's integer parameter: maximum activity age in
        leaf windows for ``"sliding_window"``, maximum entity count per
        side for ``"max_entities"``.  Required positive whenever
        ``retention != "none"``.
    score_block_size:
        Candidate pairs per batch-kernel dispatch in the scoring stage.
        ``0`` (default) picks a workload-aware size — dense corpora get
        smaller blocks to bound the memory of the kernel's matrix
        tensors; scoring time is flat in it (see
        :func:`~repro.pipeline.stages.resolve_score_block_size`).
        Results are bit-identical at every block size (kernel dispatch
        determinism).
    timeout:
        Per-block timeout in seconds for parallel executor dispatch; a
        block that exceeds it is treated as hung, its worker is killed
        (process backend) or abandoned (thread backend), and the block is
        retried.  ``0.0`` (default) disables the timeout.  The serial
        oracle cannot preempt its own frame and ignores it.
    retries:
        Retry budget per score block beyond the first attempt, with
        deterministic exponential backoff.  A block that keeps failing
        past the budget gets one final inline attempt; only then is it
        reported as a permanent task error (see
        :class:`~repro.exec.TaskError`).
    serve_queue_depth:
        Bound of the serving layer's ingest queue
        (:class:`repro.serve.LinkageService`): at most this many pending
        event batches before backpressure engages.
    serve_backpressure:
        What a full ingest queue does to a submit: ``"block"`` (await
        capacity) or ``"reject"`` (raise
        :class:`repro.serve.BackpressureError` immediately).  The batch
        pipeline ignores the ``serve_*`` fields; only the serving front
        doors read them.
    """

    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    lsh: Optional[LshConfig] = knob(None, "enable LSH filtering", flag="--lsh")
    candidates: str = knob(
        AUTO_CANDIDATES, registry=candidate_stages, also=(AUTO_CANDIDATES,)
    )
    matching: str = knob(
        "greedy",
        "bipartite matcher (greedy is the paper's)",
        flag="--matching",
        registry=matchers,
    )
    threshold: str = knob(
        "gmm",
        "stop-threshold method",
        flag="--threshold-method",
        registry=threshold_methods,
    )
    storage_level: Optional[int] = None
    executor: str = knob(
        AUTO_EXECUTOR,
        "execution backend for the scoring stage's shard fan-out (auto = the "
        "REPRO_EXECUTOR environment override, else serial); results are "
        "identical under every backend",
        flag="--executor",
        registry=executors,
        also=(AUTO_EXECUTOR,),
    )
    workers: int = knob(
        0,
        "worker count for parallel executors (0 = REPRO_WORKERS, else the "
        "CPU count)",
        flag="--workers",
        ge=0,
    )
    retention: str = knob(
        "none",
        "entity-retirement policy carried on the config (applied by "
        "streaming relinks; none = keep every entity forever)",
        flag="--retention",
        registry=retention_policies,
    )
    retention_window: int = knob(
        0,
        "retention parameter: max activity age in leaf windows "
        "(sliding_window) or max entities per side (max_entities)",
        flag="--retention-window",
        ge=0,
    )
    score_block_size: int = knob(
        0,
        "candidate pairs per scoring-kernel dispatch (0 = workload-aware: "
        "dense corpora 512, sparse 4096; results are identical at any size)",
        flag="--score-block-size",
        ge=0,
    )
    timeout: float = knob(
        0.0,
        "per-block timeout in seconds for scoring dispatches; a block "
        "exceeding it is retried and, past the retry budget, reported as "
        "failed (0 = unbounded)",
        flag="--timeout",
        ge=0,
    )
    retries: int = knob(
        DEFAULT_RETRIES,
        "retry budget per scoring block before a failure is final; failed "
        "workers are respawned between attempts",
        flag="--retries",
        ge=0,
    )
    serve_queue_depth: int = knob(
        1024,
        "serving: bound of the ingest event queue before backpressure engages",
        flag="--serve-queue-depth",
        ge=1,
    )
    serve_backpressure: str = knob(
        "block",
        "serving: what a full ingest queue does to a submit — block (await "
        "capacity) or reject (fail immediately)",
        flag="--serve-backpressure",
        choices=SERVE_BACKPRESSURE_POLICIES,
    )

    def __post_init__(self) -> None:
        validate(self)
        # The cross-field rules the per-field declarations cannot state.
        resolved_executor = resolve_executor_name(self.executor)
        if resolved_executor not in executors:
            # Only reachable through "auto": fail on a REPRO_EXECUTOR typo
            # at construction, not mid-pipeline.
            raise ValueError(
                f"unknown executor REPRO_EXECUTOR={resolved_executor!r} "
                f"(via 'auto'); registered executors: {executors.names()} "
                "(or 'auto')"
            )
        if self.retention != "none" and self.retention_window < 1:
            raise ValueError(
                f"retention={self.retention!r} needs retention_window >= 1 "
                "(max window age for sliding_window, max entities for "
                "max_entities)"
            )

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------
    def resolved_candidates(self) -> str:
        """The candidate-stage name after ``"auto"`` resolution."""
        if self.candidates != AUTO_CANDIDATES:
            return self.candidates
        return "lsh" if self.lsh is not None else "brute"

    def resolved_executor(self) -> str:
        """The execution-backend name after ``"auto"`` / environment
        resolution (see :func:`repro.exec.resolve_executor_name`)."""
        return resolve_executor_name(self.executor)

    def resolved_workers(self) -> int:
        """The worker count after ``0`` / environment resolution (see
        :func:`repro.exec.resolve_worker_count`)."""
        return resolve_worker_count(self.workers)

    def resolved_storage_level(self) -> int:
        """The history storage level: explicitly set, or the finest level
        any stage needs."""
        if self.storage_level is not None:
            return self.storage_level
        level = self.similarity.spatial_level
        if self.lsh is not None:
            level = max(level, self.lsh.spatial_level)
        return level

    def without(self, **changes) -> "LinkageConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form (JSON-ready) that :meth:`from_dict` inverts."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LinkageConfig":
        """Rebuild a config from :meth:`to_dict` output (or a hand-written
        dict).  Unknown fields and wrong-typed values — at the top level or
        inside ``similarity`` / ``lsh`` — raise :class:`ValueError` naming
        the offending key."""
        return from_dict(cls, data)
