"""GM baseline (Wang et al., NDSS 2018 — the paper's ref [43]).

GM links mobility traces by *learning a per-entity mobility model* — a
Gaussian-mixture spatial model plus a Markov model over coarse cells — and
scoring candidate pairs with weighted spatio-temporally-close record pairs.
Two properties distinguish it from SLIM (and are called out in Sec. 5.5):

* it awards record pairs from *different* temporal windows (with temporal
  decay), where SLIM only pairs within a window;
* the mobility models are used to estimate *missing* locations: when one
  entity is silent in a window where the other has records, the model's
  predicted location still contributes (discounted) evidence.

GM has no blocking/scalability mechanism and works at record granularity,
which is why the paper measures it two orders of magnitude slower; this
implementation intentionally preserves that cost profile (per-record kernel
sums) rather than optimising it away.

Like the paper's comparison, GM produces pair scores only; one-to-one
linkage is obtained by running SLIM's matching + stop-threshold over the GM
score matrix ("we apply our linkage and stop threshold algorithm over their
similarity scores").
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.matching import Edge, EdgeSet
from ..core.similarity import SimilarityStats
from ..data.records import LocationDataset
from ..geo import cell_ids_from_degrees
from ..pipeline import (
    STAGE_CANDIDATES,
    STAGE_PREPARE,
    STAGE_SCORING,
    LinkageConfig,
    LinkageContext,
    LinkagePipeline,
    LinkageReport,
    MatchingStage,
    ThresholdStage,
)
from ..temporal import Windowing

__all__ = ["GmConfig", "EntityMobilityModel", "GmLinker"]

_METERS_PER_DEGREE_LAT = 111_320.0


@dataclass(frozen=True)
class GmConfig:
    """GM parameters (kernel bandwidths, model sizes).

    ``sigma_meters`` is the spatial kernel bandwidth; ``temporal_decay`` the
    per-window discount for cross-window record pairs, considered up to
    ``max_window_gap`` windows apart; ``missing_weight`` discounts evidence
    against model-estimated (rather than observed) locations.
    """

    window_width_minutes: float = 15.0
    sigma_meters: float = 400.0
    temporal_decay: float = 0.5
    max_window_gap: int = 4
    markov_level: int = 11
    gmm_components: int = 3
    missing_weight: float = 0.3
    seed: int = 13

    def __post_init__(self) -> None:
        if self.sigma_meters <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.temporal_decay <= 1.0:
            raise ValueError("temporal decay must be in (0, 1]")
        if self.max_window_gap < 0:
            raise ValueError("window gap must be non-negative")

    @property
    def window_width_seconds(self) -> float:
        """Window width in seconds."""
        return self.window_width_minutes * 60.0


class EntityMobilityModel:
    """The per-entity model GM learns: spatial GMM + cell-level Markov chain.

    Coordinates are projected onto a local tangent plane (metres) around the
    entity's centroid; the GMM runs diagonal-covariance EM there.
    """

    def __init__(
        self,
        entity_id: str,
        timestamps: np.ndarray,
        lats: np.ndarray,
        lngs: np.ndarray,
        windowing: Windowing,
        config: GmConfig,
    ) -> None:
        self.entity_id = entity_id
        self.config = config
        self.lats = lats
        self.lngs = lngs
        self.num_records = int(timestamps.shape[0])

        self.window_records: Dict[int, List[int]] = defaultdict(list)
        indices = np.floor(
            (timestamps - windowing.origin) / windowing.width_seconds
        ).astype(np.int64)
        for row, window in enumerate(indices.tolist()):
            self.window_records[window].append(row)
        self.windows = sorted(self.window_records)

        self._fit_spatial_gmm()
        self._fit_markov(indices)

    # ------------------------------------------------------------------
    # model fitting
    # ------------------------------------------------------------------
    def _project(self, lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
        """Local tangent-plane projection to metres (N x 2)."""
        y = (lats - self.center_lat) * _METERS_PER_DEGREE_LAT
        x = (
            (lngs - self.center_lng)
            * _METERS_PER_DEGREE_LAT
            * math.cos(math.radians(self.center_lat))
        )
        return np.stack([x, y], axis=1)

    def _fit_spatial_gmm(self) -> None:
        """Diagonal-covariance 2-D GMM over the entity's locations."""
        self.center_lat = float(self.lats.mean())
        self.center_lng = float(self.lngs.mean())
        points = self._project(self.lats, self.lngs)
        n = points.shape[0]
        k = max(1, min(self.config.gmm_components, n // 4 if n >= 8 else 1))
        rng = np.random.default_rng(self.config.seed)

        # k-means-style init on a deterministic subsample.
        order = rng.permutation(n)
        means = points[order[:k]].astype(np.float64)
        variances = np.full((k, 2), max(points.var(axis=0).mean(), 1.0))
        weights = np.full(k, 1.0 / k)

        for _ in range(25):
            # E step (diagonal Gaussian responsibilities).
            log_prob = np.zeros((n, k))
            for component in range(k):
                diff = points - means[component]
                log_prob[:, component] = (
                    math.log(max(weights[component], 1e-12))
                    - 0.5 * np.sum(np.log(2 * np.pi * variances[component]))
                    - 0.5 * np.sum(diff**2 / variances[component], axis=1)
                )
            log_norm = np.logaddexp.reduce(log_prob, axis=1)
            resp = np.exp(log_prob - log_norm[:, None])
            mass = np.maximum(resp.sum(axis=0), 1e-12)
            weights = mass / n
            new_means = (resp[:, :, None] * points[:, None, :]).sum(axis=0) / mass[:, None]
            if np.allclose(new_means, means, atol=1e-3):
                means = new_means
                break
            means = new_means
            for component in range(k):
                diff = points - means[component]
                variances[component] = np.maximum(
                    (resp[:, component, None] * diff**2).sum(axis=0) / mass[component],
                    1.0,
                )
        self.gmm_weights = weights
        self.gmm_means = means
        self.gmm_variances = variances

    def _fit_markov(self, window_indices: np.ndarray) -> None:
        """First-order Markov chain over coarse cells along the record
        sequence, plus per-window observed cells."""
        cells = cell_ids_from_degrees(self.lats, self.lngs, self.config.markov_level)
        self.cell_by_row = cells
        transitions: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        order = np.argsort(window_indices, kind="stable")
        ordered_cells = cells[order]
        for previous, current in zip(ordered_cells[:-1], ordered_cells[1:]):
            transitions[int(previous)][int(current)] += 1
        self.transitions = {
            source: dict(targets) for source, targets in transitions.items()
        }
        # Cell centroid lookup (mean of this entity's fixes in the cell).
        sums: Dict[int, List[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
        for row, cell in enumerate(cells.tolist()):
            entry = sums[int(cell)]
            entry[0] += float(self.lats[row])
            entry[1] += float(self.lngs[row])
            entry[2] += 1.0
        self.cell_centroids = {
            cell: (lat_sum / count, lng_sum / count)
            for cell, (lat_sum, lng_sum, count) in sums.items()
        }

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def estimate_location(self, window: int) -> Optional[Tuple[float, float]]:
        """Estimate the entity's location in an *unobserved* window.

        Finds the nearest observed window, takes that window's cell, and
        follows the most likely Markov transition; falls back to the
        heaviest GMM component mean when the chain has no outgoing mass.
        """
        if not self.windows:
            return None
        nearest = min(self.windows, key=lambda w: abs(w - window))
        row = self.window_records[nearest][0]
        cell = int(self.cell_by_row[row])
        targets = self.transitions.get(cell)
        if targets:
            best = max(targets.items(), key=lambda item: item[1])[0]
            return self.cell_centroids[best]
        component = int(np.argmax(self.gmm_weights))
        x, y = self.gmm_means[component]
        lat = self.center_lat + y / _METERS_PER_DEGREE_LAT
        lng = self.center_lng + x / (
            _METERS_PER_DEGREE_LAT * math.cos(math.radians(self.center_lat))
        )
        return lat, lng


class GmLinker:
    """Scores pairs with GM's record-pair kernel and links via SLIM's
    matching + stop threshold (as the paper's comparison does)."""

    def __init__(self, config: Optional[GmConfig] = None) -> None:
        self.config = config or GmConfig()

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _kernel(self, lat_a, lng_a, lat_b, lng_b) -> float:
        """Squared-exponential spatial kernel on tangent-plane distance."""
        dy = (lat_a - lat_b) * _METERS_PER_DEGREE_LAT
        dx = (
            (lng_a - lng_b)
            * _METERS_PER_DEGREE_LAT
            * math.cos(math.radians(lat_a))
        )
        sigma = self.config.sigma_meters
        return math.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))

    def score(
        self, model_u: EntityMobilityModel, model_v: EntityMobilityModel
    ) -> Tuple[float, int]:
        """GM pair score — a decayed kernel sum over close record pairs
        plus discounted model-estimated evidence for missing windows — and
        the record comparisons it took."""
        config = self.config
        decay = config.temporal_decay
        gap = config.max_window_gap
        total = 0.0
        comparisons = 0

        for window in model_v.windows:
            v_rows = model_v.window_records[window]
            matched_any = False
            for delta in range(-gap, gap + 1):
                u_rows = model_u.window_records.get(window + delta)
                if not u_rows:
                    continue
                matched_any = True
                weight = decay ** abs(delta)
                for v_row in v_rows:
                    lat_v = model_v.lats[v_row]
                    lng_v = model_v.lngs[v_row]
                    for u_row in u_rows:
                        comparisons += 1
                        total += weight * self._kernel(
                            model_u.lats[u_row],
                            model_u.lngs[u_row],
                            lat_v,
                            lng_v,
                        )
            if not matched_any and config.missing_weight > 0:
                estimate = model_u.estimate_location(window)
                if estimate is not None:
                    lat_u, lng_u = estimate
                    for v_row in v_rows:
                        comparisons += 1
                        total += config.missing_weight * self._kernel(
                            lat_u, lng_u, model_v.lats[v_row], model_v.lngs[v_row]
                        )

        # Normalise by geometric mean record count so heavy loggers do not
        # dominate (GM's per-user models are likelihood-normalised).
        norm = math.sqrt(model_u.num_records * model_v.num_records)
        return (total / norm if norm > 0 else 0.0), comparisons

    # ------------------------------------------------------------------
    # linkage
    # ------------------------------------------------------------------
    def build_models(
        self, dataset: LocationDataset, windowing: Windowing
    ) -> Dict[str, EntityMobilityModel]:
        """Fit one mobility model per entity."""
        models = {}
        for entity in dataset.entities:
            timestamps, lats, lngs = dataset.columns(entity)
            models[entity] = EntityMobilityModel(
                entity, timestamps, lats, lngs, windowing, self.config
            )
        return models

    # ------------------------------------------------------------------
    # pipeline composition
    # ------------------------------------------------------------------
    def pipeline_config(self) -> LinkageConfig:
        """GM's stage choices: SLIM's greedy matcher + GMM stop threshold
        over the GM score matrix (as the paper's comparison runs it)."""
        return LinkageConfig(matching="greedy", threshold="gmm")

    def stages(self) -> List[object]:
        """The stage composition :meth:`link` runs."""
        config = self.pipeline_config()
        return [
            _GmPrepare(self),
            _GmCandidates(),
            _GmScoring(self),
            MatchingStage(config),
            ThresholdStage(config),
        ]

    def link(self, left: LocationDataset, right: LocationDataset) -> LinkageReport:
        """Score all pairs (GM has no blocking) and link with SLIM's
        matching and stop threshold.  ``extras["scores"]`` holds every
        pair's score; ``stats.bin_comparisons`` the record comparisons."""
        pipeline = LinkagePipeline(self.pipeline_config(), stages=self.stages())
        return pipeline.run(left, right)


class _GmPrepare:
    """Windowing + one fitted mobility model per entity on both sides."""

    name = STAGE_PREPARE

    def __init__(self, linker: "GmLinker") -> None:
        self.linker = linker

    def run(self, context: LinkageContext) -> None:
        windowing = context.window(self.linker.config.window_width_seconds)
        build = self.linker.build_models
        context.extras["left_models"] = build(context.left, windowing)
        context.extras["right_models"] = build(context.right, windowing)


class _GmCandidates:
    """Every cross pair — GM has no blocking mechanism (Sec. 5.5)."""

    name = STAGE_CANDIDATES

    def run(self, context: LinkageContext) -> None:
        rights = sorted(context.extras["right_models"])
        context.candidates = [
            (left, right)
            for left in sorted(context.extras["left_models"])
            for right in rights
        ]


class _GmScoring:
    """The GM record-pair kernel over every candidate pair."""

    name = STAGE_SCORING

    def __init__(self, linker: "GmLinker") -> None:
        self.linker = linker

    def run(self, context: LinkageContext) -> None:
        left_models = context.extras["left_models"]
        right_models = context.extras["right_models"]
        scores: Dict[Tuple[str, str], float] = {}
        edges: List[Edge] = []
        comparisons = 0
        for left_entity, right_entity in context.candidates:
            value, spent = self.linker.score(
                left_models[left_entity], right_models[right_entity]
            )
            comparisons += spent
            scores[(left_entity, right_entity)] = value
            if value > 0:
                edges.append(Edge(left_entity, right_entity, value))
        context.edges = EdgeSet.from_edges(edges)
        context.stats = SimilarityStats(
            pairs_scored=len(context.candidates), bin_comparisons=comparisons
        )
        context.extras["scores"] = scores
