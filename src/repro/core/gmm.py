"""A 1-D Gaussian mixture fitted by EM.

The automated stop threshold (Sec. 3.2) fits a two-component 1-D GMM over
the weights of the matched bipartite edges; the component with the larger
mean models true-positive links.  scikit-learn is not a dependency of this
reproduction, so the mixture is implemented here: log-domain EM with a
variance floor and deterministic quantile initialisation (thresholding must
be reproducible run to run).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = ["GaussianMixture1D"]

_LOG_2PI = math.log(2.0 * math.pi)


class GaussianMixture1D:
    """A k-component univariate Gaussian mixture.

    After :meth:`fit`, components are sorted by ascending mean, so for the
    two-component case used by the stop threshold, component 0 models the
    false positives (``m1``) and component 1 the true positives (``m2``).
    """

    def __init__(self, n_components: int = 2) -> None:
        if n_components < 1:
            raise ValueError("need at least one component")
        self.n_components = n_components
        self.weights_: Optional[np.ndarray] = None
        self.means_: Optional[np.ndarray] = None
        self.variances_: Optional[np.ndarray] = None
        self.converged_: bool = False
        self.n_iter_: int = 0
        self.log_likelihood_: float = -math.inf

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        data: Sequence[float],
        max_iter: int = 300,
        tol: float = 1e-9,
    ) -> "GaussianMixture1D":
        """Fit by expectation-maximisation.

        Initialisation splits the sorted data into ``n_components``
        quantile blocks — deterministic, and for bimodal score
        distributions (the case Fig. 2 shows) already close to the optimum.
        """
        x = np.asarray(data, dtype=np.float64).ravel()
        k = self.n_components
        if x.size < k:
            raise ValueError(f"need at least {k} samples, got {x.size}")

        spread = float(x.var())
        var_floor = max(spread, 1.0) * 1e-10

        ordered = np.sort(x)
        blocks = np.array_split(ordered, k)
        means = np.array([float(block.mean()) for block in blocks])
        variances = np.array(
            [max(float(block.var()), var_floor) for block in blocks]
        )
        weights = np.array([block.size / x.size for block in blocks])

        # Per-component 1-D arrays, no (n, k) temporaries — with the sums
        # an (n, k) ``.sum(axis=0)`` would take: row by row (a cumulative
        # sum's last element) for k > 1, pairwise (``.sum()``) for k == 1.
        def total(column: np.ndarray) -> float:
            return column.sum() if k == 1 else column.cumsum()[-1]

        previous = -math.inf
        for iteration in range(1, max_iter + 1):
            # E step (log domain); components combined left to right.
            log_prob = [
                -0.5 * (offset + (x - mean) ** 2 / variance) + log_weight
                for mean, variance, offset, log_weight in zip(
                    means.tolist(),
                    variances.tolist(),
                    (_LOG_2PI + np.log(variances)).tolist(),
                    np.log(np.maximum(weights, 1e-300)).tolist(),
                )
            ]
            log_norm = log_prob[0]
            for component in log_prob[1:]:
                log_norm = np.logaddexp(log_norm, component)
            log_likelihood = float(log_norm.sum())
            responsibilities = [np.exp(c - log_norm) for c in log_prob]

            # M step.
            mass = np.maximum([total(r) for r in responsibilities], 1e-300)
            weights = mass / x.size
            means = np.array([total(r * x) for r in responsibilities]) / mass
            fitted = zip(responsibilities, means.tolist())
            variances = np.array([total(r * (x - m) ** 2) for r, m in fitted]) / mass
            variances = np.maximum(variances, var_floor)

            self.n_iter_ = iteration
            if abs(log_likelihood - previous) < tol * max(1.0, abs(previous)):
                self.converged_ = True
                previous = log_likelihood
                break
            previous = log_likelihood

        order = np.argsort(means)
        self.weights_ = weights[order]
        self.means_ = means[order]
        self.variances_ = variances[order]
        self.log_likelihood_ = previous
        return self

    def _require_fit(self) -> None:
        if self.means_ is None:
            raise RuntimeError("call fit() first")

    # ------------------------------------------------------------------
    # densities
    # ------------------------------------------------------------------
    def component_pdf(self, component: int, x: np.ndarray) -> np.ndarray:
        """Density of one component at ``x`` (not weighted)."""
        self._require_fit()
        mean = self.means_[component]
        variance = self.variances_[component]
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-0.5 * (x - mean) ** 2 / variance) / math.sqrt(
            2.0 * math.pi * variance
        )

    def component_cdf(self, component: int, x: np.ndarray) -> np.ndarray:
        """CDF ``F_m(x)`` of one component — the quantity the expected
        precision/recall formulas of Sec. 3.2 are built from."""
        self._require_fit()
        mean = self.means_[component]
        std = math.sqrt(self.variances_[component])
        x = np.asarray(x, dtype=np.float64)
        from scipy.special import erf  # local import keeps numpy-only paths lean

        return 0.5 * (1.0 + erf((x - mean) / (std * math.sqrt(2.0))))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most responsible component per sample."""
        self._require_fit()
        x = np.asarray(x, dtype=np.float64)
        densities = np.stack(
            [
                self.weights_[component] * self.component_pdf(component, x)
                for component in range(self.n_components)
            ],
            axis=1,
        )
        return np.argmax(densities, axis=1)
