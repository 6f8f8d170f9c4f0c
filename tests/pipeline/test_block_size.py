"""Workload-aware scoring block size: resolution rules and parity.

The block size only shapes the kernel's tensor footprints — results must
be bit-identical at every size (kernel dispatch determinism), which is
what makes the density heuristic safe to apply silently.
"""

import pytest

from repro.core import kernels
from repro.data.sampling import LinkagePair
from repro.eval.harness import score_all_pairs
from repro.pipeline import (
    DENSE_SCORE_BLOCK_SIZE,
    SCORE_BLOCK_SIZE,
    LinkageConfig,
    LinkagePipeline,
    resolve_score_block_size,
)


class TestResolution:
    def test_explicit_config_wins(self, cab_pair):
        config = LinkageConfig(score_block_size=777)
        assert resolve_score_block_size(config, None, None) == 777

    def test_missing_corpora_fall_back_to_default(self):
        assert (
            resolve_score_block_size(LinkageConfig(), None, None)
            == SCORE_BLOCK_SIZE
        )

    def test_dense_corpus_gets_small_blocks(self, cab_pair):
        report = LinkagePipeline(LinkageConfig()).run(
            cab_pair.left, cab_pair.right
        )
        # Recover the corpora the run built to probe the heuristic.
        from repro.core.corpus import HistoryCorpus
        from repro.core.history import build_histories
        from repro.temporal import common_windowing

        windowing = common_windowing(
            (cab_pair.left.time_range(), cab_pair.right.time_range()), 900.0
        )
        left = HistoryCorpus(
            build_histories(cab_pair.left, windowing, 12), 12
        )
        right = HistoryCorpus(
            build_histories(cab_pair.right, windowing, 12), 12
        )
        # Taxis report every ~150s inside 900s windows: multiple cells per
        # active window on both sides — the dense regime.
        assert left.avg_cells_per_window() > 2.0
        assert (
            resolve_score_block_size(LinkageConfig(), left, right)
            == DENSE_SCORE_BLOCK_SIZE
        )
        # ... which an explicit size (how tests and benches force
        # sharding) still overrides.
        explicit = LinkageConfig(score_block_size=48)
        assert resolve_score_block_size(explicit, left, right) == 48
        assert report.links  # the run itself stayed sane

    def test_sparse_corpus_keeps_large_blocks(self, sm_pair):
        from repro.core.corpus import HistoryCorpus
        from repro.core.history import build_histories
        from repro.temporal import common_windowing

        windowing = common_windowing(
            (sm_pair.left.time_range(), sm_pair.right.time_range()), 900.0
        )
        left = HistoryCorpus(build_histories(sm_pair.left, windowing, 12), 12)
        right = HistoryCorpus(build_histories(sm_pair.right, windowing, 12), 12)
        # Check-ins are one event per window: vector-shaped interactions.
        assert left.avg_cells_per_window() < 2.0
        assert (
            resolve_score_block_size(LinkageConfig(), left, right)
            == SCORE_BLOCK_SIZE
        )

    def test_score_all_pairs_takes_the_dense_choice(self, cab_world, monkeypatch):
        """Every caller of the engine gets the workload-aware size, not
        only the scoring stage: the full 24 x 24 taxi cross product (576
        pairs — the sampled ``cab_pair``'s 144 would fit one block of
        either size) reaches the kernel as one dense block and the rest.
        """
        blocks = []
        kernel = kernels.score_pairs_batch

        def recording(left, right, pairs, config):
            blocks.append(len(pairs))
            return kernel(left, right, pairs, config)

        monkeypatch.setattr(kernels, "score_pairs_batch", recording)
        pair = LinkagePair(cab_world, cab_world.renamed("right"), {})
        scores, _ = score_all_pairs(pair)
        assert len(scores) == 576
        assert blocks == [DENSE_SCORE_BLOCK_SIZE, 576 - DENSE_SCORE_BLOCK_SIZE]


class TestBlockSizeParity:
    @pytest.mark.parametrize("block", [0, 64, 512, 4096])
    def test_results_identical_at_every_block_size(self, cab_pair, block):
        """Links, scores and counters are bit-identical whatever the
        block size — the heuristic can never change an answer."""
        reference = LinkagePipeline(
            LinkageConfig(score_block_size=4096)
        ).run(cab_pair.left, cab_pair.right)
        report = LinkagePipeline(
            LinkageConfig(score_block_size=block)
        ).run(cab_pair.left, cab_pair.right)
        assert report.links == reference.links
        assert {(e.left, e.right): e.weight for e in report.edges} == {
            (e.left, e.right): e.weight for e in reference.edges
        }
        assert report.stats.bin_comparisons == reference.stats.bin_comparisons
        assert report.stats.common_windows == reference.stats.common_windows
        assert report.stats.alibi_bin_pairs == reference.stats.alibi_bin_pairs
