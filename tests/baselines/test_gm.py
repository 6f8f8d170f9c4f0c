"""Unit tests for the GM baseline."""

import numpy as np
import pytest

from repro.baselines import GmConfig, GmLinker
from repro.baselines.gm import EntityMobilityModel
from repro.data import LocationDataset, sample_linkage_pair
from repro.data.synth import default_cab_world
from repro.eval import precision_recall_f1
from repro.temporal import Windowing


@pytest.fixture(scope="module")
def gm_pair():
    world = default_cab_world(
        num_taxis=12, duration_days=0.5, sample_period_seconds=600, seed=3
    ).generate()
    return sample_linkage_pair(world, 0.5, 0.5, rng=3)


class TestConfig:
    def test_defaults(self):
        config = GmConfig()
        assert config.max_window_gap == 4
        assert 0 < config.temporal_decay <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            GmConfig(sigma_meters=0)
        with pytest.raises(ValueError):
            GmConfig(temporal_decay=0.0)
        with pytest.raises(ValueError):
            GmConfig(max_window_gap=-1)


class TestEntityModel:
    def _model(self, rows, config=None):
        array = np.asarray(rows, dtype=np.float64)
        return EntityMobilityModel(
            "e",
            array[:, 0],
            array[:, 1],
            array[:, 2],
            Windowing(0.0, 900.0),
            config or GmConfig(),
        )

    def test_gmm_centers_on_data(self):
        rows = [(900.0 * k, 37.77 + 0.0001 * (k % 2), -122.42) for k in range(20)]
        model = self._model(rows)
        assert model.gmm_weights.sum() == pytest.approx(1.0)
        # All components sit near the data centroid (within ~200 m).
        for x, y in model.gmm_means:
            assert abs(x) < 200 and abs(y) < 200

    def test_markov_transitions_learned(self):
        # Alternating between two distant cells -> transitions exist.
        rows = []
        for k in range(10):
            if k % 2 == 0:
                rows.append((900.0 * k, 37.77, -122.42))
            else:
                rows.append((900.0 * k, 37.90, -122.10))
        model = self._model(rows)
        assert model.transitions

    def test_estimate_location_for_missing_window(self):
        rows = [(0.0, 37.77, -122.42), (900.0, 37.78, -122.41)]
        model = self._model(rows)
        estimate = model.estimate_location(50)
        assert estimate is not None
        lat, lng = estimate
        assert 37.0 < lat < 38.5
        assert -123.0 < lng < -121.5

    def test_windows_sorted(self):
        rows = [(1800.0, 37.0, -122.0), (0.0, 37.1, -122.1)]
        model = self._model(rows)
        assert model.windows == sorted(model.windows)


class TestLinkage:
    def test_accuracy_on_dense_data(self, gm_pair):
        result = GmLinker().link(gm_pair.left, gm_pair.right)
        quality = precision_recall_f1(result.links, gm_pair.ground_truth)
        assert quality.precision >= 0.6
        assert quality.recall >= 0.5

    def test_links_one_to_one(self, gm_pair):
        result = GmLinker().link(gm_pair.left, gm_pair.right)
        assert len(set(result.links.values())) == len(result.links)

    def test_scores_cover_all_pairs(self, gm_pair):
        """GM has no blocking: every cross pair receives a score."""
        result = GmLinker().link(gm_pair.left, gm_pair.right)
        assert len(result.extras["scores"]) == (
            gm_pair.left.num_entities * gm_pair.right.num_entities
        )

    def test_record_comparisons_scale_with_records(self, gm_pair):
        result = GmLinker().link(gm_pair.left, gm_pair.right)
        assert result.stats.bin_comparisons > gm_pair.left.num_records

    def test_cross_window_pairs_award(self):
        """GM awards record pairs from different windows (decayed), unlike
        SLIM's same-window-only pairing."""
        base = 1_000_000.0
        left = LocationDataset.from_arrays(
            ["u"],
            {"u": (np.array([base]), np.array([37.77]), np.array([-122.42]))},
        )
        # Right record one window later at the same place.
        right = LocationDataset.from_arrays(
            ["v"],
            {"v": (np.array([base + 1000.0]), np.array([37.77]), np.array([-122.42]))},
        )
        linker = GmLinker(GmConfig(max_window_gap=4))
        result = linker.link(left, right)
        assert result.extras["scores"][("u", "v")] > 0.0

    def test_gap_zero_ignores_cross_window(self):
        base = 1_000_000.0
        left = LocationDataset.from_arrays(
            ["u"],
            {"u": (np.array([base]), np.array([37.77]), np.array([-122.42]))},
        )
        right = LocationDataset.from_arrays(
            ["v"],
            {"v": (np.array([base + 1000.0]), np.array([37.77]), np.array([-122.42]))},
        )
        linker = GmLinker(GmConfig(max_window_gap=0, missing_weight=0.0))
        result = linker.link(left, right)
        assert result.extras["scores"][("u", "v")] == 0.0
