"""Unit tests for the ST-Link baseline."""

import pytest

from repro.baselines import StLinkConfig, StLinkLinker
from repro.eval import precision_recall_f1


class TestConfig:
    def test_defaults(self):
        config = StLinkConfig()
        assert config.alibi_tolerance == 3
        assert config.k is None and config.l is None

    def test_validation(self):
        with pytest.raises(ValueError):
            StLinkConfig(window_width_minutes=0)
        with pytest.raises(ValueError):
            StLinkConfig(alibi_tolerance=-1)


class TestLinkage:
    def test_links_dense_pair_accurately(self, cab_pair):
        result = StLinkLinker().link(cab_pair.left, cab_pair.right)
        quality = precision_recall_f1(result.links, cab_pair.ground_truth)
        assert quality.precision >= 0.7
        assert quality.recall >= 0.5

    def test_links_are_one_to_one(self, cab_pair):
        result = StLinkLinker().link(cab_pair.left, cab_pair.right)
        assert len(set(result.links.values())) == len(result.links)

    def test_auto_k_l_detected(self, cab_pair):
        result = StLinkLinker().link(cab_pair.left, cab_pair.right)
        assert result.extras["k"] >= 1
        assert result.extras["l"] >= 1

    def test_explicit_k_l_respected(self, cab_pair):
        result = StLinkLinker(StLinkConfig(k=5, l=2)).link(
            cab_pair.left, cab_pair.right
        )
        assert result.extras["k"] == 5 and result.extras["l"] == 2
        for pair in result.links.items():
            assert result.extras["scores"][pair] >= 5

    def test_huge_k_yields_no_links(self, cab_pair):
        result = StLinkLinker(StLinkConfig(k=10**9, l=1)).link(
            cab_pair.left, cab_pair.right
        )
        assert result.links == {}

    def test_zero_alibi_tolerance_is_stricter(self, cab_pair):
        lax = StLinkLinker(StLinkConfig(alibi_tolerance=10**6)).link(
            cab_pair.left, cab_pair.right
        )
        strict = StLinkLinker(StLinkConfig(alibi_tolerance=0)).link(
            cab_pair.left, cab_pair.right
        )
        ambiguous = strict.extras["ambiguous_entities"]
        assert len(strict.links) <= len(lax.links) + len(ambiguous)

    def test_scores_rank_true_pairs_high(self, cab_pair):
        result = StLinkLinker().link(cab_pair.left, cab_pair.right)
        scores = result.extras["scores"]
        truth_scores = [scores.get(pair, 0.0) for pair in cab_pair.ground_truth.items()]
        all_scores = list(scores.values())
        if truth_scores and all_scores:
            import numpy as np

            assert np.mean(truth_scores) > np.mean(all_scores)

    def test_record_comparisons_counted(self, cab_pair):
        result = StLinkLinker().link(cab_pair.left, cab_pair.right)
        assert result.stats.bin_comparisons > 0
        assert result.runtime_seconds > 0

    def test_low_evidence_no_better_than_slim(self, sm_world):
        """The paper's Fig. 11b: at low record counts ST-Link cannot beat
        SLIM — its k-co-occurrence requirement starves before SLIM's
        aggregated similarity does."""
        from repro.pipeline import LinkageConfig
        from repro.data import sample_linkage_pair
        from repro.eval import run_pipeline

        sparse = sample_linkage_pair(
            sm_world, 0.5, 0.25, rng=31, min_records=3
        )
        stlink = StLinkLinker().link(sparse.left, sparse.right)
        stlink_f1 = precision_recall_f1(stlink.links, sparse.ground_truth).f1
        slim_f1 = run_pipeline(sparse, LinkageConfig()).f1
        assert stlink_f1 <= slim_f1 + 0.1
