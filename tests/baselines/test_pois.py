"""Unit tests for the POIS baseline."""

import pytest

from repro.baselines import PoisConfig, PoisLinker
from repro.eval import precision_recall_f1


class TestConfig:
    def test_defaults(self):
        config = PoisConfig()
        assert config.window_width_minutes == 15.0
        assert config.spatial_level == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            PoisConfig(window_width_minutes=0)
        with pytest.raises(ValueError):
            PoisConfig(spatial_level=31)


class TestLinkage:
    def test_links_dense_pair(self, cab_pair):
        result = PoisLinker().link(cab_pair.left, cab_pair.right)
        quality = precision_recall_f1(result.links, cab_pair.ground_truth)
        assert quality.recall >= 0.6

    def test_links_one_to_one(self, cab_pair):
        result = PoisLinker().link(cab_pair.left, cab_pair.right)
        assert len(set(result.links.values())) == len(result.links)

    def test_no_stop_threshold_hurts_precision_vs_slim(self, cab_pair):
        """POIS (like the other prior work) links a full matching; without
        SLIM's stop threshold, non-overlapping entities become false links
        at intersection ratio 0.5."""
        from repro.pipeline import LinkageConfig
        from repro.eval import run_pipeline

        pois = PoisLinker().link(cab_pair.left, cab_pair.right)
        pois_quality = precision_recall_f1(pois.links, cab_pair.ground_truth)
        slim = run_pipeline(cab_pair, LinkageConfig())
        assert slim.quality.precision >= pois_quality.precision

    def test_rarity_weighting_ranks_true_pairs(self, cab_pair):
        scores = PoisLinker().link(cab_pair.left, cab_pair.right).extras["scores"]
        import numpy as np

        truth_scores = [scores.get(pair, 0.0) for pair in cab_pair.ground_truth.items()]
        if truth_scores and scores:
            assert np.mean(truth_scores) > np.mean(list(scores.values()))

    def test_scores_only_for_cooccurring_pairs(self, sm_pair):
        scores = PoisLinker().link(sm_pair.left, sm_pair.right).extras["scores"]
        assert len(scores) <= sm_pair.left.num_entities * sm_pair.right.num_entities
        assert all(value > 0 for value in scores.values())

    def test_comparisons_counted(self, cab_pair):
        result = PoisLinker().link(cab_pair.left, cab_pair.right)
        assert result.stats.bin_comparisons > 0
        assert result.runtime_seconds > 0

    def test_min_score_filters(self, cab_pair):
        loose = PoisLinker(PoisConfig(min_score=0.0)).link(
            cab_pair.left, cab_pair.right
        )
        strict = PoisLinker(PoisConfig(min_score=10**9)).link(
            cab_pair.left, cab_pair.right
        )
        assert len(strict.links) <= len(loose.links)
        assert strict.links == {}
