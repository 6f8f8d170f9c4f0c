"""Unit tests for the experiment harness."""

from repro.core.similarity import SimilarityConfig
from repro.pipeline import LinkageConfig
from repro.eval import hit_precision_at_k, run_pipeline, score_all_pairs


class TestRunPipeline:
    def test_returns_quality_and_result(self, cab_pair):
        measures = run_pipeline(cab_pair, LinkageConfig())
        assert 0.0 <= measures.f1 <= 1.0
        assert measures.bin_comparisons > 0
        assert measures.runtime_seconds > 0

    def test_row_is_flat(self, cab_pair):
        measures = run_pipeline(cab_pair, LinkageConfig())
        row = measures.row()
        for key in ("precision", "recall", "f1", "bin_comparisons", "runtime_s"):
            assert key in row

    def test_default_config(self, cab_pair):
        assert run_pipeline(cab_pair).f1 >= 0.0


class TestScoreAllPairs:
    def test_full_matrix(self, cab_pair):
        scores, engine = score_all_pairs(cab_pair)
        expected = cab_pair.left.num_entities * cab_pair.right.num_entities
        assert len(scores) == expected
        assert engine.stats.pairs_scored == expected

    def test_hit_precision_near_one_on_dense_data(self, cab_pair):
        scores, _ = score_all_pairs(cab_pair)
        assert hit_precision_at_k(scores, cab_pair.ground_truth, 40) > 0.8

    def test_custom_similarity_config(self, cab_pair):
        scores, engine = score_all_pairs(
            cab_pair, SimilarityConfig(spatial_level=10)
        )
        assert engine.config.spatial_level == 10
        assert scores

