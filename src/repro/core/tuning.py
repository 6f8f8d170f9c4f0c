"""Automatic spatial-level tuning (Sec. 3.3).

Picking the grid level for a given temporal window trades accuracy against
cost: too coarse and entities become indistinguishable, too fine and history
sizes (and pairwise comparison counts) grow with no accuracy gain.  The
paper's unsupervised procedure, implemented here:

1. sample a subset of entities from a dataset;
2. for each sampled entity ``u`` and a set of other entities ``v``, compute
   the ratio ``S(u, v) / S(u, u)`` — *pair similarity over self-similarity*
   — at each candidate spatial level;
3. average the ratios per level; the curve decreases (more detail separates
   entities better) and then flattens;
4. detect the best trade-off point with Kneedle (ref [36]) and use it as
   the level — when linking two datasets, the larger of their two elbow
   levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.records import LocationDataset
from ..exec import Executor, as_executor, raise_on_task_errors
from ..temporal import Windowing, common_windowing
from .corpus import HistoryCorpus
from .elbow import kneedle_index
from .history import MobilityHistory, build_histories
from .score_cache import ScoreCache
from .similarity import SimilarityConfig, SimilarityEngine

__all__ = ["SpatialLevelChoice", "self_similarity_curve", "auto_spatial_level", "auto_spatial_level_for_pair"]

RngLike = Union[int, np.random.Generator, None]

#: ``config`` arguments accept the similarity knobs directly or any
#: object composing them under ``.similarity`` (e.g. a
#: :class:`~repro.pipeline.config.LinkageConfig`).
ConfigLike = Optional[object]


def _similarity_config(config: ConfigLike) -> Optional[SimilarityConfig]:
    """Normalise ``None`` / ``SimilarityConfig`` / anything carrying a
    ``.similarity`` (``LinkageConfig``)."""
    if config is None or isinstance(config, SimilarityConfig):
        return config
    similarity = getattr(config, "similarity", None)
    if isinstance(similarity, SimilarityConfig):
        return similarity
    raise TypeError(
        "expected SimilarityConfig or a config with a .similarity, got "
        f"{type(config).__name__}"
    )

#: Candidate levels the paper's experiments sweep (Figs. 4, 5, 10a).
DEFAULT_LEVELS: Tuple[int, ...] = (4, 6, 8, 10, 12, 14, 16, 18, 20)


class _HistoriesToken:
    """Identity token for a histories mapping inside a shared ScoreCache.

    Hashes/compares by the *identity* of the wrapped mapping, and holds a
    strong reference to it — so as long as any cache entry keyed by this
    token exists, the mapping cannot be garbage collected and its identity
    cannot be recycled by an unrelated dict (``id()`` alone could alias a
    dead mapping; this cannot).
    """

    __slots__ = ("histories",)

    def __init__(self, histories: Dict[str, MobilityHistory]) -> None:
        self.histories = histories

    def __hash__(self) -> int:
        return id(self.histories)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _HistoriesToken)
            and self.histories is other.histories
        )


@dataclass(frozen=True)
class SpatialLevelChoice:
    """The tuned level plus the diagnostic curve behind the decision."""

    level: int
    levels: Tuple[int, ...]
    ratios: Tuple[float, ...]

    def curve(self) -> Dict[int, float]:
        """``{level: average pair/self similarity ratio}``."""
        return dict(zip(self.levels, self.ratios))


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _curve_level_task(payload, level: int) -> float:
    """Executor task for one candidate level: the average pair/self
    similarity ratio at it (module-level so the ``"process"`` backend can
    pickle it by reference).  The payload's last slot is the sweep's
    :class:`ScoreCache` — ``None`` unless the sweep selected the serial
    executor for it."""
    histories, base, probes, partners, score_cache = payload
    token = (
        ("tuning", _HistoriesToken(histories), level)
        if score_cache is not None
        else None
    )
    corpus = HistoryCorpus(histories, level, cache_token=token)
    # The probe workload scores a handful of pairs per level; the
    # scalar backend avoids paying the batch kernel's corpus-wide
    # array-view build for <1% of the entities.
    engine = SimilarityEngine(
        corpus,
        corpus,
        base.without(spatial_level=level, backend="python"),
        score_cache=score_cache,
    )
    values: List[float] = []
    for probe in probes:
        self_score = engine.score(probe, probe)
        if self_score <= 0:
            continue
        for partner in partners[probe]:
            values.append(max(0.0, engine.score(probe, partner)) / self_score)
    return float(np.mean(values)) if values else 1.0


def self_similarity_curve(
    dataset: LocationDataset,
    window_width_minutes: float = 15.0,
    levels: Sequence[int] = DEFAULT_LEVELS,
    sample_size: int = 8,
    pairs_per_entity: int = 8,
    rng: RngLike = None,
    config: ConfigLike = None,
    windowing: Optional[Windowing] = None,
    score_cache: Optional[ScoreCache] = None,
    histories: Optional[Dict[str, MobilityHistory]] = None,
    executor: Optional[Union[Executor, str]] = None,
) -> List[float]:
    """Average ``S(u, v) / S(u, u)`` per candidate level.

    ``config`` supplies non-level similarity knobs (speed, ``b``, ...) —
    a :class:`~repro.core.similarity.SimilarityConfig` or anything
    composing one under ``.similarity`` (a
    :class:`~repro.pipeline.config.LinkageConfig`); its
    ``spatial_level`` is overridden per candidate.

    Repeated sweeps over the same dataset (re-tuning as data streams in,
    sensitivity benches that vary ``sample_size``) re-score many of the
    same probe pairs.  Passing both ``histories`` (prebuilt once, e.g. via
    :func:`~repro.core.history.build_histories` at ``max(levels)``) and a
    shared :class:`~repro.core.score_cache.ScoreCache` lets those repeats
    hit previously computed raw totals: the per-level corpora are given a
    cache token tied to the identity of the ``histories`` mapping (which
    the cache keeps alive), so entries stay valid exactly as long as the
    caller reuses the same, unmutated mapping.

    ``executor`` fans the candidate levels out through an execution
    backend (:mod:`repro.exec`) — an :class:`~repro.exec.Executor`
    instance (borrowed) or a backend name (``"thread"``, ``"process"``;
    created and shut down internally; ``None`` is ``"serial"``).  Levels
    are independent, so results are identical under every backend.  Level
    fan-out and score *caching* are mutually exclusive (the cache is not
    shared across workers); when both are requested the cache wins and
    the sweep's tasks run on the serial executor.
    """
    rng = _as_rng(rng)
    base = _similarity_config(config) or SimilarityConfig(
        window_width_minutes=window_width_minutes
    )
    if windowing is None:
        windowing = common_windowing(
            (dataset.time_range(),), base.window_width_seconds
        )

    entities = dataset.entities
    if len(entities) < 2:
        raise ValueError("need at least two entities to compute the curve")
    probe_count = min(sample_size, len(entities))
    probe_indices = rng.choice(len(entities), size=probe_count, replace=False)
    probes = [entities[int(k)] for k in probe_indices]

    # Fix the partner draw across levels so the curve is comparable.
    partners: Dict[str, List[str]] = {}
    for probe in probes:
        others = [e for e in entities if e != probe]
        take = min(pairs_per_entity, len(others))
        chosen = rng.choice(len(others), size=take, replace=False)
        partners[probe] = [others[int(k)] for k in chosen]

    # Cross-call reuse is only sound for a caller-owned histories mapping:
    # internally built histories die with this call, so attaching the
    # cache would only deposit never-hittable entries.
    cache = score_cache if histories is not None else None
    if histories is None:
        histories = build_histories(dataset, windowing, max(levels))
    # The cache is one in-parent structure no worker shares: a sweep that
    # uses it selects the serial executor (not another code path).
    with as_executor("serial" if cache is not None else executor) as resolved:
        outcomes = resolved.map_blocks(
            _curve_level_task,
            list(levels),
            payload=(histories, base, probes, partners, cache),
        )
    # A level that failed past its retry budget must not surface as a
    # silent None ratio — fail after the sweep completed.
    raise_on_task_errors(outcomes, "self-similarity level")
    return [outcome.value for outcome in outcomes]


def auto_spatial_level(
    dataset: LocationDataset,
    window_width_minutes: float = 15.0,
    levels: Sequence[int] = DEFAULT_LEVELS,
    sample_size: int = 8,
    pairs_per_entity: int = 8,
    rng: RngLike = None,
    config: ConfigLike = None,
    windowing: Optional[Windowing] = None,
    score_cache: Optional[ScoreCache] = None,
    histories: Optional[Dict[str, MobilityHistory]] = None,
    executor: Optional[Union[Executor, str]] = None,
) -> SpatialLevelChoice:
    """Tune the spatial level for one dataset (Sec. 3.3).

    ``score_cache`` / ``histories`` enable raw-score reuse across repeated
    sweeps; ``executor`` fans the candidate levels out through an
    execution backend — see :func:`self_similarity_curve`.
    """
    ratios = self_similarity_curve(
        dataset,
        window_width_minutes=window_width_minutes,
        levels=levels,
        sample_size=sample_size,
        pairs_per_entity=pairs_per_entity,
        rng=rng,
        config=config,
        windowing=windowing,
        score_cache=score_cache,
        histories=histories,
        executor=executor,
    )
    knee = kneedle_index(list(levels), ratios, curve="convex", direction="decreasing")
    return SpatialLevelChoice(
        level=int(levels[knee]), levels=tuple(levels), ratios=tuple(ratios)
    )


def auto_spatial_level_for_pair(
    left: LocationDataset,
    right: LocationDataset,
    window_width_minutes: float = 15.0,
    levels: Sequence[int] = DEFAULT_LEVELS,
    sample_size: int = 8,
    pairs_per_entity: int = 8,
    rng: RngLike = None,
    config: ConfigLike = None,
    score_cache: Optional[ScoreCache] = None,
    left_histories: Optional[Dict[str, MobilityHistory]] = None,
    right_histories: Optional[Dict[str, MobilityHistory]] = None,
    executor: Optional[Union[Executor, str]] = None,
) -> int:
    """Tune both datasets independently and take the higher elbow level,
    as the paper prescribes for a linkage run.

    Score reuse across repeated runs needs both ``score_cache`` and
    caller-owned prebuilt histories (one mapping per side) — see
    :func:`self_similarity_curve`; a cache without histories is ignored.
    ``executor`` (an :class:`~repro.exec.Executor` or a backend name)
    fans each side's level sweep out through the same execution API the
    scoring stage uses; a named backend is created once and shared by
    both sides.
    """
    rng = _as_rng(rng)
    config = _similarity_config(config)
    width_seconds = (
        config.window_width_seconds
        if config is not None
        else window_width_minutes * 60.0
    )
    windowing = common_windowing(
        (left.time_range(), right.time_range()), width_seconds
    )
    with as_executor(executor) as resolved:
        choice_left = auto_spatial_level(
            left,
            window_width_minutes,
            levels,
            sample_size,
            pairs_per_entity,
            rng,
            config,
            windowing,
            score_cache=score_cache,
            histories=left_histories,
            executor=resolved,
        )
        choice_right = auto_spatial_level(
            right,
            window_width_minutes,
            levels,
            sample_size,
            pairs_per_entity,
            rng,
            config,
            windowing,
            score_cache=score_cache,
            histories=right_histories,
            executor=resolved,
        )
    return max(choice_left.level, choice_right.level)
