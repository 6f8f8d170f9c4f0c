"""Automated linkage stop threshold (Sec. 3.2).

After the bipartite matching, the matched edges split into true links and
false links; because real datasets never fully overlap, linking *everything*
would destroy precision.  The paper's mechanism, implemented by
:func:`gmm_stop_threshold`:

1. fit a two-component 1-D GMM over the matched edge weights;
2. read the larger-mean component (``m2``) as the true-positive model and
   the other (``m1``) as the false-positive model;
3. for a candidate threshold ``s``, expected recall and precision are
   ``R(s) = c2 * (1 - F_m2(s))`` and
   ``P(s) = R(s) / (R(s) + c1 * (1 - F_m1(s)))``;
4. keep the ``s`` maximising expected F1.

(The paper prints ``argmin``; its own derivation — and Fig. 2 — maximise
F1.)  The paper notes Otsu's method and 2-means give similar thresholds;
both are provided for the ablation benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from .gmm import GaussianMixture1D

__all__ = [
    "ThresholdDecision",
    "gmm_stop_threshold",
    "otsu_threshold",
    "two_means_threshold",
]


@dataclass(frozen=True)
class ThresholdDecision:
    """A stop-threshold choice plus the model diagnostics behind it.

    ``expected_*`` are the model-implied metrics at the chosen threshold —
    what the linker believes *without ground truth*; the evaluation harness
    compares them against measured values.  NaN for a method without a
    model.
    """

    threshold: float
    method: str
    expected_precision: float = math.nan
    expected_recall: float = math.nan
    expected_f1: float = math.nan
    model: Optional[GaussianMixture1D] = None

    def accepts(self, weight: float) -> bool:
        """True when an edge of this weight should be kept as a link."""
        return weight >= self.threshold


def _keep_every_edge(weights: np.ndarray, method: str) -> ThresholdDecision:
    """Keep every matched edge: the threshold is the lowest weight (0.0
    without edges).  The ``"none"`` method, and the fallback when the
    weight distribution cannot support a 2-GMM (too few edges, or zero
    spread)."""
    return ThresholdDecision(float(weights.min()) if weights.size else 0.0, method)


def expected_prf(model: GaussianMixture1D, thresholds: np.ndarray) -> tuple:
    """Vectorised expected (precision, recall, F1) under a fitted 2-GMM.

    Exposed separately so benches can plot the full expected-F1 curve
    (Fig. 2's red line is its argmax).
    """
    c1, c2 = float(model.weights_[0]), float(model.weights_[1])
    survivors_false = c1 * (1.0 - model.component_cdf(0, thresholds))
    recall = c2 * (1.0 - model.component_cdf(1, thresholds))
    denominator = recall + survivors_false
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(denominator > 0, recall / denominator, 0.0)
        f1 = np.where(
            (precision + recall) > 0,
            2.0 * precision * recall / (precision + recall),
            0.0,
        )
    return precision, recall, f1


def gmm_stop_threshold(
    weights: ArrayLike, grid_size: int = 1024
) -> ThresholdDecision:
    """The paper's automated stop threshold over matched edge weights."""
    array = np.asarray(weights, dtype=np.float64)
    if array.size < 4 or float(array.std()) == 0.0:
        return _keep_every_edge(array, "gmm-degenerate")

    model = GaussianMixture1D(n_components=2).fit(array)
    low, high = float(array.min()), float(array.max())
    grid = np.linspace(low, high, grid_size)
    precision, recall, f1 = expected_prf(model, grid)
    best = int(np.argmax(f1))
    return ThresholdDecision(
        threshold=float(grid[best]),
        method="gmm",
        expected_precision=float(precision[best]),
        expected_recall=float(recall[best]),
        expected_f1=float(f1[best]),
        model=model,
    )


def otsu_threshold(weights: ArrayLike, bins: int = 256) -> ThresholdDecision:
    """Otsu's histogram threshold (the paper reports it behaves like the
    GMM approach on these score distributions)."""
    array = np.asarray(weights, dtype=np.float64)
    if array.size < 4 or float(array.std()) == 0.0:
        return _keep_every_edge(array, "otsu-degenerate")

    histogram, edges = np.histogram(array, bins=bins)
    probabilities = histogram.astype(np.float64) / array.size
    centers = (edges[:-1] + edges[1:]) / 2.0

    omega0 = np.cumsum(probabilities)
    mu_cum = np.cumsum(probabilities * centers)
    mu_total = mu_cum[-1]
    omega1 = 1.0 - omega0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = mu_cum / omega0
        mu1 = (mu_total - mu_cum) / omega1
        between = omega0 * omega1 * (mu0 - mu1) ** 2
    between[~np.isfinite(between)] = -1.0
    best = int(np.argmax(between))
    return ThresholdDecision(float(edges[best + 1]), "otsu")


def two_means_threshold(
    weights: ArrayLike, max_iter: int = 100
) -> ThresholdDecision:
    """1-D 2-means clustering threshold (Lloyd's algorithm); the cut falls
    midway between the two final centroids."""
    array = np.asarray(weights, dtype=np.float64)
    if array.size < 4 or float(array.std()) == 0.0:
        return _keep_every_edge(array, "two_means-degenerate")

    low_center = float(array.min())
    high_center = float(array.max())
    for _ in range(max_iter):
        boundary = (low_center + high_center) / 2.0
        low_mask = array < boundary
        if not low_mask.any() or low_mask.all():
            break
        new_low = float(array[low_mask].mean())
        new_high = float(array[~low_mask].mean())
        if math.isclose(new_low, low_center) and math.isclose(new_high, high_center):
            low_center, high_center = new_low, new_high
            break
        low_center, high_center = new_low, new_high
    return ThresholdDecision((low_center + high_center) / 2.0, "two_means")
