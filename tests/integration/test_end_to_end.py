"""Integration tests: the full SLIM pipeline on both synthetic worlds,
cross-checked against baselines — the qualitative claims of Sec. 5 at
laptop scale."""

import pytest

from repro.baselines import StLinkLinker
from repro.core.similarity import SimilarityConfig
from repro.pipeline import LinkageConfig, LinkagePipeline
from repro.data import sample_linkage_pair
from repro.eval import (
    hit_precision_at_k,
    precision_recall_f1,
    relative_f1,
    run_pipeline,
    score_all_pairs,
    speedup,
)
from repro.lsh import LshConfig


class TestCabScenario:
    def test_slim_beats_stlink_on_f1(self, cab_pair):
        slim = run_pipeline(cab_pair, LinkageConfig())
        stlink = StLinkLinker().link(cab_pair.left, cab_pair.right)
        stlink_f1 = precision_recall_f1(stlink.links, cab_pair.ground_truth).f1
        # Sec. 5.5: SLIM outperforms ST-Link (allow ties at this scale).
        assert slim.f1 >= stlink_f1 - 0.05

    def test_lsh_speedup_with_modest_f1_loss(self, cab_pair):
        brute = run_pipeline(cab_pair, LinkageConfig())
        lsh = run_pipeline(
            cab_pair,
            LinkageConfig(
                lsh=LshConfig(threshold=0.5, step_windows=8, spatial_level=14)
            ),
        )
        gain = speedup(brute.bin_comparisons, lsh.bin_comparisons)
        preserved = relative_f1(lsh.f1, brute.f1)
        assert gain > 1.5
        assert preserved > 0.6

    def test_no_false_links_at_high_threshold_quality(self, cab_pair):
        result = LinkagePipeline(LinkageConfig()).run(cab_pair.left, cab_pair.right)
        quality = precision_recall_f1(result.links, cab_pair.ground_truth)
        assert quality.precision >= 0.8

    def test_hit_precision_at_40(self, cab_pair):
        scores, _ = score_all_pairs(cab_pair)
        assert hit_precision_at_k(scores, cab_pair.ground_truth, 40) > 0.85


class TestIntersectionRatioBehaviour:
    @pytest.mark.parametrize("ratio", [0.3, 0.9])
    def test_threshold_guards_precision_across_ratios(self, cab_world, ratio):
        """The stop threshold exists precisely because entity sets only
        partially overlap; precision must hold up even at low ratios."""
        pair = sample_linkage_pair(cab_world, ratio, 0.5, rng=17)
        measures = run_pipeline(pair, LinkageConfig())
        assert measures.quality.precision >= 0.7

    def test_lower_inclusion_probability_reduces_evidence(self, cab_world):
        dense_pair = sample_linkage_pair(cab_world, 0.5, 0.9, rng=19)
        sparse_pair = sample_linkage_pair(cab_world, 0.5, 0.1, rng=19)
        dense = run_pipeline(dense_pair, LinkageConfig())
        sparse = run_pipeline(sparse_pair, LinkageConfig())
        assert sparse.bin_comparisons < dense.bin_comparisons


class TestSmScenario:
    def test_slim_links_sparse_checkins(self, sm_pair):
        measures = run_pipeline(sm_pair, LinkageConfig())
        assert measures.quality.precision > 0.5
        assert measures.quality.recall > 0.3

    def test_lsh_on_sparse_world(self, sm_pair):
        brute = run_pipeline(sm_pair, LinkageConfig())
        lsh = run_pipeline(
            sm_pair,
            LinkageConfig(
                lsh=LshConfig(threshold=0.4, step_windows=24, spatial_level=14)
            ),
        )
        assert lsh.bin_comparisons <= brute.bin_comparisons


class TestReproducibility:
    def test_same_seed_same_linkage(self, cab_world):
        pair_a = sample_linkage_pair(cab_world, 0.5, 0.5, rng=23)
        pair_b = sample_linkage_pair(cab_world, 0.5, 0.5, rng=23)
        result_a = LinkagePipeline(LinkageConfig()).run(pair_a.left, pair_a.right)
        result_b = LinkagePipeline(LinkageConfig()).run(pair_b.left, pair_b.right)
        assert result_a.links == result_b.links
        assert result_a.threshold.threshold == pytest.approx(
            result_b.threshold.threshold
        )

    def test_lsh_candidates_reproducible(self, cab_pair):
        config = LinkageConfig(
            lsh=LshConfig(threshold=0.5, step_windows=8, spatial_level=14)
        )
        first = LinkagePipeline(config).run(cab_pair.left, cab_pair.right)
        second = LinkagePipeline(config).run(cab_pair.left, cab_pair.right)
        assert first.candidate_pairs == second.candidate_pairs
        assert first.links == second.links


class TestWindowWidthBehaviour:
    def test_wider_windows_blur_entities(self, cab_pair):
        """Fig. 4: very wide windows aggregate too much and hurt accuracy
        relative to the 15-minute default (precision-side degradation)."""
        narrow = run_pipeline(
            cab_pair,
            LinkageConfig(similarity=SimilarityConfig(window_width_minutes=15)),
        )
        wide = run_pipeline(
            cab_pair,
            LinkageConfig(similarity=SimilarityConfig(window_width_minutes=360)),
        )
        assert narrow.f1 >= wide.f1 - 0.05

    def test_coarse_spatial_level_blurs_entities(self, cab_pair):
        coarse = run_pipeline(
            cab_pair, LinkageConfig(similarity=SimilarityConfig(spatial_level=4))
        )
        fine = run_pipeline(
            cab_pair, LinkageConfig(similarity=SimilarityConfig(spatial_level=14))
        )
        assert fine.f1 >= coarse.f1 - 0.05
