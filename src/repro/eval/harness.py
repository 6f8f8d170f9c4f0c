"""Experiment harness: run SLIM configurations against sampled pairs and
collect the measures the paper's figures report.

The figure benches in ``benchmarks/`` are thin wrappers around these
helpers, so the same code paths serve tests, examples and benches.
"""

from __future__ import annotations

# repro-lint: timing-module -- the harness reports wall-clock speedups per cell
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.corpus import HistoryCorpus
from ..core.history import build_histories
from ..core.similarity import SimilarityConfig, SimilarityEngine
from ..data.sampling import LinkagePair
from ..exec import Executor, as_executor, raise_on_task_errors
from ..pipeline import LinkageConfig, LinkagePipeline, LinkageReport
from ..temporal import common_windowing
from .metrics import LinkageQuality, precision_recall_f1

__all__ = [
    "RunMeasures",
    "ScenarioCell",
    "run_pipeline",
    "run_grid",
    "run_scenarios",
    "score_all_pairs",
]


@dataclass(frozen=True)
class RunMeasures:
    """Everything one SLIM run contributes to a figure."""

    quality: LinkageQuality
    result: LinkageReport
    runtime_seconds: float

    @property
    def f1(self) -> float:
        """Measured F1 against ground truth."""
        return self.quality.f1

    @property
    def bin_comparisons(self) -> int:
        """Pairwise bin (record) comparisons spent on similarity."""
        return self.result.stats.bin_comparisons

    @property
    def alibi_entity_pairs(self) -> int:
        """Entity pairs in which alibi evidence was found."""
        return self.result.stats.alibi_entity_pairs

    def row(self) -> Dict[str, float]:
        """Flat dict for tabular reporting."""
        return {
            "precision": self.quality.precision,
            "recall": self.quality.recall,
            "f1": self.quality.f1,
            "links": self.quality.true_positives + self.quality.false_positives,
            "true_links": len(self.result.links) and self.quality.true_positives,
            "candidates": self.result.candidate_pairs,
            "bin_comparisons": self.bin_comparisons,
            "alibi_pairs": self.alibi_entity_pairs,
            "runtime_s": self.runtime_seconds,
            "threshold": self.result.threshold.threshold,
        }


def run_pipeline(
    pair: LinkagePair, config: Optional[LinkageConfig] = None
) -> RunMeasures:
    """Run a stage-pipeline configuration on a sampled pair and score it
    against ground truth."""
    pipeline = LinkagePipeline(config)
    start = time.perf_counter()
    result = pipeline.run(pair.left, pair.right)
    elapsed = time.perf_counter() - start
    quality = precision_recall_f1(result.links, pair.ground_truth)
    return RunMeasures(quality=quality, result=result, runtime_seconds=elapsed)


def _grid_cell_task(pair: LinkagePair, config: LinkageConfig) -> RunMeasures:
    """Executor task for one grid cell (module-level so the ``"process"``
    backend can pickle it by reference)."""
    return run_pipeline(pair, config)


def run_grid(
    pair: LinkagePair,
    configs: Sequence[LinkageConfig],
    executor: Optional[Union[Executor, str]] = None,
) -> List[RunMeasures]:
    """Run a sweep of pipeline configurations over one sampled pair.

    The workhorse behind parameter-sensitivity figures: each config is one
    grid cell, and cells are independent — so they fan out through the
    same execution API (:mod:`repro.exec`) the scoring stage shards
    through.  ``executor`` is an :class:`~repro.exec.Executor` instance
    (borrowed) or a backend name (created and shut down internally);
    ``None`` is the ``"serial"`` *executor* — the same ``map_blocks``
    route, retries and fault plan included, with no workers.  Results
    come back in config order under every backend, each cell's measures
    are identical to a serial run's, and a cell that fails past its retry
    budget is a :class:`~repro.exec.TaskError` naming it.

    Under the ``"process"`` backend the sampled pair ships to the workers
    once and each cell's pipeline runs its scoring stage serially (nested
    process fan-out degrades to serial by design) — the parallelism is
    across cells, which is where a sweep's wall-clock goes.
    """
    with as_executor(executor) as resolved:
        outcomes = resolved.map_blocks(
            _grid_cell_task, list(configs), payload=pair
        )
    # Every surviving cell already ran to completion; a cell that failed
    # past its retry budget fails the sweep cleanly here instead of
    # leaking a None into the measures.
    raise_on_task_errors(outcomes, "grid cell")
    return [outcome.value for outcome in outcomes]


@dataclass(frozen=True)
class ScenarioCell:
    """One (scenario, configuration) cell of a scenario matrix."""

    scenario: str
    config_label: str
    measures: RunMeasures

    def row(self) -> Dict[str, object]:
        """Flat dict for tabular reporting, keyed by scenario and config."""
        row: Dict[str, object] = {
            "scenario": self.scenario,
            "config": self.config_label,
        }
        row.update(self.measures.row())
        return row


def _scenario_cell_task(
    payload: Tuple[Optional[int], float],
    item: Tuple[str, str, LinkageConfig],
) -> RunMeasures:
    """Executor task for one scenario-matrix cell.

    Module-level so the ``"process"`` backend can pickle it by reference.
    The cell regenerates its pair from ``(scenario, seed, scale)`` alone —
    scenario builders are deterministic, so a worker-side pair is
    byte-identical to the driver's and nothing heavy ships over the wire.
    """
    from ..scenarios import scenario_pair

    seed, scale = payload
    scenario_name, _, config = item
    pair = scenario_pair(scenario_name, seed=seed, scale=scale)
    return run_pipeline(pair, config)


def run_scenarios(
    names: Optional[Sequence[str]] = None,
    configs: Optional[Mapping[str, LinkageConfig]] = None,
    seed: Optional[int] = None,
    scale: float = 1.0,
    executor: Optional[Union[Executor, str]] = None,
) -> List[ScenarioCell]:
    """Fan the scenario zoo out against a set of configurations.

    The scenario-matrix sibling of :func:`run_grid`: every
    ``(scenario, config)`` cell generates the scenario's ground-truthed
    pair (deterministically from ``seed`` / ``scale``), runs the
    configuration on it and scores against the held-out truth.  Cells are
    independent and fan out through the same execution API
    (:mod:`repro.exec`); results come back in ``(name, config)`` order
    regardless of backend, and each cell's quality measures are identical
    to a serial run's.

    ``names`` defaults to every registered scenario, ``configs`` to one
    default :class:`~repro.pipeline.config.LinkageConfig` labelled
    ``"default"``.  Under the ``"process"`` backend scenario builders are
    looked up by name inside the workers, so scenarios registered at
    runtime (outside an importable module) only work with the serial and
    thread backends.
    """
    from ..scenarios import scenario_names as registered_names

    names = list(names) if names is not None else registered_names()
    if configs is None:
        configs = {"default": LinkageConfig()}
    items: List[Tuple[str, str, LinkageConfig]] = [
        (name, label, config)
        for name in names
        for label, config in configs.items()
    ]
    with as_executor(executor) as resolved:
        outcomes = resolved.map_blocks(
            _scenario_cell_task, items, payload=(seed, float(scale))
        )
    raise_on_task_errors(outcomes, "scenario cell")
    return [
        ScenarioCell(
            scenario=name, config_label=label, measures=outcome.value
        )
        for (name, label, _), outcome in zip(items, outcomes)
    ]


def score_all_pairs(
    pair: LinkagePair, similarity: Optional[SimilarityConfig] = None
) -> Tuple[Dict[Tuple[str, str], float], SimilarityEngine]:
    """Brute-force score matrix over every cross pair.

    Needed by ranking metrics (hit-precision@k) which must see the scores
    of *all* right entities for each left entity, not only candidates.
    """
    similarity = similarity or SimilarityConfig()
    windowing = common_windowing(
        (pair.left.time_range(), pair.right.time_range()),
        similarity.window_width_seconds,
    )
    level = similarity.spatial_level
    left_histories = build_histories(pair.left, windowing, level)
    right_histories = build_histories(pair.right, windowing, level)
    engine = SimilarityEngine(
        HistoryCorpus(left_histories, level),
        HistoryCorpus(right_histories, level),
        similarity,
    )
    pairs = [
        (left_entity, right_entity)
        for left_entity in left_histories
        for right_entity in right_histories
    ]
    return dict(zip(pairs, engine.score_batch(pairs))), engine
