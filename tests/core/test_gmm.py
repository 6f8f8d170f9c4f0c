"""Unit tests for the 1-D Gaussian mixture EM."""

import numpy as np
import pytest

from repro.core.gmm import GaussianMixture1D


def _bimodal(rng, n1=300, n2=200, mu1=0.0, mu2=10.0, sd1=1.0, sd2=1.5):
    return np.concatenate(
        [rng.normal(mu1, sd1, n1), rng.normal(mu2, sd2, n2)]
    )


class TestFit:
    def test_recovers_two_well_separated_components(self, rng):
        data = _bimodal(rng)
        model = GaussianMixture1D(2).fit(data)
        assert model.means_[0] == pytest.approx(0.0, abs=0.3)
        assert model.means_[1] == pytest.approx(10.0, abs=0.4)
        assert model.weights_[0] == pytest.approx(0.6, abs=0.05)
        assert model.weights_[1] == pytest.approx(0.4, abs=0.05)

    def test_components_sorted_by_mean(self, rng):
        data = _bimodal(rng, mu1=50.0, mu2=-5.0)
        model = GaussianMixture1D(2).fit(data)
        assert model.means_[0] < model.means_[1]

    def test_weights_sum_to_one(self, rng):
        model = GaussianMixture1D(2).fit(_bimodal(rng))
        assert model.weights_.sum() == pytest.approx(1.0)

    def test_variances_positive(self, rng):
        model = GaussianMixture1D(2).fit(_bimodal(rng))
        assert (model.variances_ > 0).all()

    def test_single_component(self, rng):
        data = rng.normal(5.0, 2.0, 500)
        model = GaussianMixture1D(1).fit(data)
        assert model.means_[0] == pytest.approx(5.0, abs=0.3)
        assert np.sqrt(model.variances_[0]) == pytest.approx(2.0, abs=0.3)

    def test_three_components(self, rng):
        data = np.concatenate(
            [rng.normal(0, 0.5, 200), rng.normal(5, 0.5, 200), rng.normal(10, 0.5, 200)]
        )
        model = GaussianMixture1D(3).fit(data)
        assert model.means_ == pytest.approx([0, 5, 10], abs=0.4)

    def test_log_likelihood_improves_over_iterations(self, rng):
        data = _bimodal(rng)
        short = GaussianMixture1D(2).fit(data, max_iter=1)
        long = GaussianMixture1D(2).fit(data, max_iter=200)
        assert long.log_likelihood_ >= short.log_likelihood_ - 1e-6

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            GaussianMixture1D(2).fit([1.0])

    def test_invalid_component_count(self):
        with pytest.raises(ValueError):
            GaussianMixture1D(0)

    def test_identical_data_does_not_crash(self):
        model = GaussianMixture1D(2).fit(np.full(50, 3.0))
        assert np.isfinite(model.means_).all()
        assert np.isfinite(model.variances_).all()

    def test_deterministic(self, rng):
        data = _bimodal(rng)
        a = GaussianMixture1D(2).fit(data)
        b = GaussianMixture1D(2).fit(data)
        assert np.array_equal(a.means_, b.means_)


class TestDensities:
    def test_weighted_component_pdfs_integrate_to_one(self, rng):
        model = GaussianMixture1D(2).fit(_bimodal(rng))
        xs = np.linspace(-10, 25, 20_000)
        density = sum(
            model.weights_[component] * model.component_pdf(component, xs)
            for component in range(2)
        )
        assert np.trapezoid(density, xs) == pytest.approx(1.0, abs=1e-3)

    def test_component_pdf_is_derivative_of_cdf(self, rng):
        model = GaussianMixture1D(2).fit(_bimodal(rng))
        xs = np.linspace(-3, 14, 50)
        h = 1e-5
        for component in range(2):
            slope = (
                model.component_cdf(component, xs + h)
                - model.component_cdf(component, xs - h)
            ) / (2 * h)
            assert np.allclose(slope, model.component_pdf(component, xs), atol=1e-6)

    def test_component_cdf_monotone(self, rng):
        model = GaussianMixture1D(2).fit(_bimodal(rng))
        xs = np.linspace(-10, 25, 100)
        for component in range(2):
            cdf = model.component_cdf(component, xs)
            assert (np.diff(cdf) >= -1e-12).all()
            assert cdf[0] == pytest.approx(0.0, abs=1e-6)
            assert cdf[-1] == pytest.approx(1.0, abs=1e-6)

    def test_cdf_at_mean_is_half(self, rng):
        model = GaussianMixture1D(2).fit(_bimodal(rng))
        for component in range(2):
            value = model.component_cdf(component, np.array([model.means_[component]]))
            assert value[0] == pytest.approx(0.5, abs=1e-9)

    def test_predict_separates_clusters(self, rng):
        model = GaussianMixture1D(2).fit(_bimodal(rng))
        labels = model.predict(np.array([0.0, 10.0]))
        assert labels[0] == 0
        assert labels[1] == 1

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianMixture1D(2).predict(np.array([0.0]))
