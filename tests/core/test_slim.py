"""Unit and small integration tests for the SLIM pipeline (Alg. 1)."""

import pytest

from repro.eval import precision_recall_f1
from repro.lsh import LshConfig
from repro.pipeline import (
    BruteForceCandidates,
    LinkageConfig,
    LinkageContext,
    LinkagePipeline,
    LshCandidates,
    PrepareStage,
)


def _prepared(pair, config, *more_stages):
    """The context after ``prepare`` (plus any further stages) only —
    the stage classes run piecemeal."""
    context = LinkageContext(config=config, left=pair.left, right=pair.right)
    for stage in (PrepareStage(config), *more_stages):
        stage.run(context)
    return context


class TestConfig:
    def test_default_storage_level_is_similarity_level(self):
        config = LinkageConfig()
        assert config.resolved_storage_level() == 12

    def test_storage_level_covers_lsh(self):
        config = LinkageConfig(lsh=LshConfig(spatial_level=16))
        assert config.resolved_storage_level() == 16

    def test_explicit_storage_level_wins(self):
        config = LinkageConfig(storage_level=20)
        assert config.resolved_storage_level() == 20

    def test_invalid_threshold_method(self):
        with pytest.raises(ValueError):
            LinkageConfig(threshold="coin_flip")


class TestPipelineStages:
    def test_windowing_covers_both_datasets(self, cab_pair):
        context = _prepared(cab_pair, LinkageConfig())
        for dataset in (cab_pair.left, cab_pair.right):
            start, end = dataset.time_range()
            assert context.windowing.index_of(start) >= 0
            assert context.windowing.index_of(end) < context.total_windows

    def test_brute_force_candidates_are_all_pairs(self, cab_pair):
        config = LinkageConfig()
        context = _prepared(cab_pair, config, BruteForceCandidates(config))
        assert len(context.candidates) == len(context.left_histories) * len(
            context.right_histories
        )

    def test_lsh_candidates_are_subset(self, cab_pair):
        config = LinkageConfig(
            lsh=LshConfig(threshold=0.5, step_windows=8, spatial_level=14)
        )
        lsh = _prepared(cab_pair, config, LshCandidates(config)).candidates
        brute = _prepared(cab_pair, config, BruteForceCandidates(config)).candidates
        assert set(lsh) <= set(brute)


class TestEndToEnd:
    def test_brute_force_high_accuracy(self, cab_pair):
        result = LinkagePipeline(LinkageConfig()).run(cab_pair.left, cab_pair.right)
        quality = precision_recall_f1(result.links, cab_pair.ground_truth)
        assert quality.precision >= 0.8
        assert quality.recall >= 0.8

    def test_result_invariants(self, cab_pair):
        result = LinkagePipeline(LinkageConfig()).run(cab_pair.left, cab_pair.right)
        # one-to-one
        assert len(set(result.links.values())) == len(result.links)
        # links are a subset of matched edges at/above the threshold
        matched = {(e.left, e.right) for e in result.matched_edges}
        for pair in result.links.items():
            assert pair in matched
        for edge in result.matched_edges:
            if edge.weight >= result.threshold.threshold:
                assert result.links.get(edge.left) == edge.right
        # all positive candidate edges scored positive
        assert all(e.weight > 0 for e in result.edges)

    def test_link_scores_accessor(self, cab_pair):
        result = LinkagePipeline(LinkageConfig()).run(cab_pair.left, cab_pair.right)
        scores = result.link_scores
        assert set(scores) == set(result.links.items())
        assert all(v >= result.threshold.threshold for v in scores.values())

    def test_timings_use_canonical_stage_names(self, cab_pair):
        result = LinkagePipeline(LinkageConfig()).run(cab_pair.left, cab_pair.right)
        for stage in ("prepare", "candidates", "scoring", "matching", "threshold"):
            assert stage in result.timings
        assert result.runtime_seconds > 0

    def test_lsh_preserves_most_f1(self, cab_pair):
        brute = LinkagePipeline(LinkageConfig()).run(cab_pair.left, cab_pair.right)
        lsh_config = LshConfig(threshold=0.4, step_windows=8, spatial_level=14)
        lsh = LinkagePipeline(LinkageConfig(lsh=lsh_config)).run(
            cab_pair.left, cab_pair.right
        )
        f1_brute = precision_recall_f1(brute.links, cab_pair.ground_truth).f1
        f1_lsh = precision_recall_f1(lsh.links, cab_pair.ground_truth).f1
        assert lsh.stats.bin_comparisons <= brute.stats.bin_comparisons
        assert f1_lsh >= 0.5 * f1_brute

    def test_threshold_none_links_every_match(self, cab_pair):
        result = LinkagePipeline(LinkageConfig(threshold="none")).run(
            cab_pair.left, cab_pair.right
        )
        assert len(result.links) == len(result.matched_edges)

    def test_matching_methods_comparable(self, cab_pair):
        greedy = LinkagePipeline(LinkageConfig(matching="greedy")).run(
            cab_pair.left, cab_pair.right
        )
        exact = LinkagePipeline(LinkageConfig(matching="hungarian")).run(
            cab_pair.left, cab_pair.right
        )
        f1_greedy = precision_recall_f1(greedy.links, cab_pair.ground_truth).f1
        f1_exact = precision_recall_f1(exact.links, cab_pair.ground_truth).f1
        assert abs(f1_greedy - f1_exact) < 0.25

    def test_sparse_world_still_links(self, sm_pair):
        result = LinkagePipeline(LinkageConfig()).run(sm_pair.left, sm_pair.right)
        quality = precision_recall_f1(result.links, sm_pair.ground_truth)
        # Sparse evidence: expect moderate but clearly non-random quality.
        assert quality.precision > 0.5
        assert quality.recall > 0.3

    def test_otsu_threshold_method(self, cab_pair):
        result = LinkagePipeline(LinkageConfig(threshold="otsu")).run(
            cab_pair.left, cab_pair.right
        )
        assert result.threshold.method in ("otsu", "otsu-degenerate")
