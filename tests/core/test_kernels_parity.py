"""Backend parity suite: the vectorized batch kernel vs. the scalar oracle.

The ``backend="numpy"`` kernel (:mod:`repro.core.kernels`) re-implements
Eq. 2 + Alg. 1 over array views; the ``backend="python"`` loop stays the
verification oracle.  These tests pin the contract: identical scores
(within 1e-9), identical instrumentation counters, identical greedy
pairings under ties, and identical final links end-to-end — across every
pairing / MFN / IDF / normalisation combination and the degenerate window
shapes.
"""

import numpy as np
import pytest

from repro.core.corpus import HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.kernels import greedy_select_batch, score_pairs_batch
from repro.core.pairing import greedy_index_pairs
from repro.core.similarity import SimilarityConfig, SimilarityEngine
from repro.pipeline import LinkageConfig, LinkagePipeline
from repro.data.records import LocationDataset, Record
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)
LEVEL = 12


def _random_histories(prefix, count, rng, sparse=False):
    histories = {}
    for index in range(count):
        records = int(rng.integers(2, 12 if sparse else 50))
        span = 900.0 * (80 if sparse else 30)
        timestamps = rng.uniform(0.0, span, records)
        lats = 37.7 + rng.normal(0.0, 0.4 if sparse else 0.12, records)
        lngs = -122.4 + rng.normal(0.0, 0.4 if sparse else 0.12, records)
        entity = f"{prefix}{index}"
        histories[entity] = MobilityHistory.from_columns(
            entity, timestamps, lats, lngs, WINDOWING, LEVEL
        )
    return histories


def _score_both(left, right, config, pairs):
    """(python scores+stats, numpy scores+stats) for the same inputs."""
    scalar = SimilarityEngine(
        HistoryCorpus(left, LEVEL),
        HistoryCorpus(right, LEVEL),
        config.without(backend="python"),
    )
    vectorized = SimilarityEngine(
        HistoryCorpus(left, LEVEL),
        HistoryCorpus(right, LEVEL),
        config.without(backend="numpy"),
    )
    scalar_scores = [scalar.score(u, v) for u, v in pairs]
    vector_scores = vectorized.score_batch(pairs)
    return scalar_scores, scalar.stats, vector_scores, vectorized.stats


def _assert_scores_match(scalar_scores, vector_scores):
    for expected, got in zip(scalar_scores, vector_scores):
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def _assert_stats_match(scalar_stats, vector_stats):
    assert scalar_stats.pairs_scored == vector_stats.pairs_scored
    assert scalar_stats.bin_comparisons == vector_stats.bin_comparisons
    assert scalar_stats.common_windows == vector_stats.common_windows
    assert scalar_stats.alibi_bin_pairs == vector_stats.alibi_bin_pairs
    assert scalar_stats.alibi_entity_pairs == vector_stats.alibi_entity_pairs


CONFIG_GRID = [
    SimilarityConfig(),
    SimilarityConfig(pairing="all_pairs"),
    SimilarityConfig(use_mfn=False),
    SimilarityConfig(use_idf=False),
    SimilarityConfig(use_normalization=False),
    SimilarityConfig(pairing="all_pairs", use_idf=False),
    SimilarityConfig(use_mfn=False, use_normalization=False, b=1.0),
    SimilarityConfig(use_idf=False, use_mfn=False, pairing="all_pairs"),
]


class TestScoreParity:
    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: (
        f"{c.pairing}-mfn{int(c.use_mfn)}-idf{int(c.use_idf)}"
        f"-norm{int(c.use_normalization)}"
    ))
    def test_dense_world(self, config):
        rng = np.random.default_rng(101)
        left = _random_histories("l", 10, rng)
        right = _random_histories("r", 10, rng)
        pairs = [(u, v) for u in left for v in right]
        s_scores, s_stats, v_scores, v_stats = _score_both(
            left, right, config, pairs
        )
        _assert_scores_match(s_scores, v_scores)
        _assert_stats_match(s_stats, v_stats)

    @pytest.mark.parametrize("config", CONFIG_GRID[:4], ids=lambda c: (
        f"{c.pairing}-mfn{int(c.use_mfn)}"
    ))
    def test_sparse_world_with_alibis(self, config):
        """Wide scatter guarantees alibi (beyond-runaway) bin pairs, so the
        MFN negative pass and alibi counters are actually exercised."""
        rng = np.random.default_rng(202)
        left = _random_histories("l", 8, rng, sparse=True)
        right = _random_histories("r", 8, rng, sparse=True)
        pairs = [(u, v) for u in left for v in right]
        s_scores, s_stats, v_scores, v_stats = _score_both(
            left, right, config, pairs
        )
        _assert_scores_match(s_scores, v_scores)
        _assert_stats_match(s_stats, v_stats)
        if config.pairing == "mnn" and config.use_mfn:
            assert s_stats.alibi_bin_pairs > 0  # the scenario is non-trivial

    def test_single_pair_dispatch_matches_batch(self):
        rng = np.random.default_rng(303)
        left = _random_histories("l", 4, rng)
        right = _random_histories("r", 4, rng)
        config = SimilarityConfig()
        engine = SimilarityEngine(
            HistoryCorpus(left, LEVEL), HistoryCorpus(right, LEVEL), config
        )
        pairs = [(u, v) for u in left for v in right]
        batched = engine.score_batch(pairs)
        for pair, expected in zip(pairs, batched):
            assert engine.score(*pair) == pytest.approx(expected, abs=1e-12)


class TestEdgeCases:
    def _one(self, rows):
        array = np.asarray(rows, dtype=np.float64)
        return MobilityHistory.from_columns(
            "e", array[:, 0], array[:, 1], array[:, 2], WINDOWING, LEVEL
        )

    def _corpora(self, left_rows, right_rows):
        background = [(9_000_000.0, 10.0, 10.0)]
        left = {
            "u": MobilityHistory.from_columns(
                "u", *np.asarray(left_rows, dtype=np.float64).T, WINDOWING, LEVEL
            ),
            "bgL": MobilityHistory.from_columns(
                "bgL", *np.asarray(background, dtype=np.float64).T, WINDOWING, LEVEL
            ),
        }
        right = {
            "v": MobilityHistory.from_columns(
                "v", *np.asarray(right_rows, dtype=np.float64).T, WINDOWING, LEVEL
            ),
            "bgR": MobilityHistory.from_columns(
                "bgR", *np.asarray(background, dtype=np.float64).T, WINDOWING, LEVEL
            ),
        }
        return left, right

    def test_no_common_windows(self):
        left, right = self._corpora(
            [(0.0, 37.77, -122.42)], [(5000.0, 37.77, -122.42)]
        )
        for backend in ("python", "numpy"):
            engine = SimilarityEngine(
                HistoryCorpus(left, LEVEL),
                HistoryCorpus(right, LEVEL),
                SimilarityConfig(backend=backend),
            )
            score, stats = engine.score_with_stats("u", "v")
            assert score == 0.0
            assert stats.common_windows == 0
            assert stats.bin_comparisons == 0

    def test_single_bin_each_side(self):
        left, right = self._corpora(
            [(0.0, 37.77, -122.42)], [(10.0, 37.80, -122.40)]
        )
        s_scores, s_stats, v_scores, v_stats = _score_both(
            left, right, SimilarityConfig(), [("u", "v")]
        )
        _assert_scores_match(s_scores, v_scores)
        _assert_stats_match(s_stats, v_stats)
        assert s_stats.bin_comparisons == 1

    def test_many_cells_one_window(self):
        """A single window with many distinct cells on both sides drives
        the padded matrix buckets (and the MFN pass) hard."""
        rng = np.random.default_rng(404)
        left_rows = [
            (float(rng.uniform(0, 890)), 37.7 + 0.02 * k, -122.4 - 0.015 * k)
            for k in range(9)
        ]
        right_rows = [
            (float(rng.uniform(0, 890)), 37.72 + 0.018 * k, -122.38 - 0.02 * k)
            for k in range(7)
        ]
        left, right = self._corpora(left_rows, right_rows)
        for config in (SimilarityConfig(), SimilarityConfig(pairing="all_pairs")):
            s_scores, s_stats, v_scores, v_stats = _score_both(
                left, right, config, [("u", "v")]
            )
            _assert_scores_match(s_scores, v_scores)
            _assert_stats_match(s_stats, v_stats)

    def test_far_apart_single_bins_alibi(self):
        left, right = self._corpora(
            [(0.0, 37.77, -122.42)], [(10.0, 38.50, -121.70)]
        )
        s_scores, s_stats, v_scores, v_stats = _score_both(
            left, right, SimilarityConfig(), [("u", "v")]
        )
        _assert_scores_match(s_scores, v_scores)
        _assert_stats_match(s_stats, v_stats)
        assert v_scores[0] < 0.0
        assert v_stats.alibi_bin_pairs == 1


class TestGreedyTieBreaking:
    """The batched greedy must reproduce the scalar tie-break (stable sort,
    row-major on equal distances) exactly — a pairing flip would silently
    change scores by more than rounding."""

    def test_all_zero_matrix(self):
        matrix = np.zeros((1, 3, 3))
        for reverse in (False, True):
            mask = greedy_select_batch(matrix, reverse)[0]
            scalar = {
                (iu, iv)
                for iu, iv, _ in greedy_index_pairs(matrix[0].tolist(), reverse)
            }
            assert {(i, j) for i, j in zip(*np.nonzero(mask))} == scalar

    @pytest.mark.parametrize("reverse", [False, True])
    def test_tie_heavy_random_matrices(self, reverse):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            matrix = rng.choice([0.0, 1.0, 2.0], size=(rows, cols))
            mask = greedy_select_batch(matrix[None], reverse)[0]
            vector = {(i, j) for i, j in zip(*np.nonzero(mask))}
            scalar = {
                (iu, iv)
                for iu, iv, _ in greedy_index_pairs(matrix.tolist(), reverse)
            }
            assert vector == scalar

    @pytest.mark.parametrize("reverse", [False, True])
    def test_vector_shapes_honour_valid_mask(self, reverse):
        """The 1-row/1-column fast path must not select masked entries."""
        distances = np.array([[[5.0, 1.0, 3.0]]])
        valid = np.array([[[True, False, True]]])
        mask = greedy_select_batch(distances, reverse, valid)
        picked = int(np.nonzero(mask.reshape(-1))[0][0])
        assert picked == (0 if reverse else 2)  # entry 1 is masked out

    @pytest.mark.parametrize("reverse", [False, True])
    def test_padded_buckets_match_unpadded(self, reverse):
        """Validity-masked padding (repeating the last real cell) must not
        change the selection."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            rows = int(rng.integers(2, 6))
            cols = int(rng.integers(2, 6))
            side = 8
            matrix = rng.random((rows, cols)) * 100
            padded = np.empty((side, side))
            padded[:rows, :cols] = matrix
            padded[rows:, :cols] = matrix[rows - 1, :]
            padded[:, cols:] = padded[:, cols - 1 : cols]
            valid = np.zeros((side, side), dtype=bool)
            valid[:rows, :cols] = True
            mask = greedy_select_batch(padded[None], reverse, valid[None])[0]
            vector = {(i, j) for i, j in zip(*np.nonzero(mask))}
            scalar = {
                (iu, iv)
                for iu, iv, _ in greedy_index_pairs(matrix.tolist(), reverse)
            }
            assert vector == scalar


class TestLinkageParity:
    def _dataset(self, name, histories_rng, entities, sparse=False):
        records = []
        for index in range(entities):
            count = int(histories_rng.integers(3, 25))
            timestamps = histories_rng.uniform(0.0, 900.0 * 40, count)
            lats = 37.7 + histories_rng.normal(0.0, 0.2, count)
            lngs = -122.4 + histories_rng.normal(0.0, 0.2, count)
            for t, lat, lng in zip(timestamps, lats, lngs):
                records.append(
                    Record(f"{name}{index}", float(lat), float(lng), float(t))
                )
        return LocationDataset.from_records(records, name=name)

    def test_identical_links_end_to_end(self):
        rng = np.random.default_rng(909)
        left = self._dataset("a", rng, 12)
        right = self._dataset("b", rng, 12)
        results = {}
        for backend in ("python", "numpy"):
            config = LinkageConfig(
                similarity=SimilarityConfig(backend=backend),
                threshold="two_means",
            )
            results[backend] = LinkagePipeline(config).run(left, right)
        assert results["python"].links == results["numpy"].links
        assert (
            results["python"].candidate_pairs == results["numpy"].candidate_pairs
        )
        scalar_edges = {
            (e.left, e.right): e.weight for e in results["python"].edges
        }
        vector_edges = {
            (e.left, e.right): e.weight for e in results["numpy"].edges
        }
        assert scalar_edges.keys() == vector_edges.keys()
        for key, weight in scalar_edges.items():
            assert vector_edges[key] == pytest.approx(weight, rel=1e-9, abs=1e-9)


class TestKernelDirect:
    def test_empty_pair_list(self):
        rng = np.random.default_rng(11)
        left = HistoryCorpus(_random_histories("l", 3, rng), LEVEL)
        right = HistoryCorpus(_random_histories("r", 3, rng), LEVEL)
        result = score_pairs_batch(left, right, [], SimilarityConfig())
        assert result.scores.shape == (0,)

    def test_corpus_array_views_mirror_dict_views(self):
        rng = np.random.default_rng(12)
        corpus = HistoryCorpus(_random_histories("l", 5, rng), LEVEL)
        flats = corpus.arrays()
        for entity in corpus.entities:
            annotated = corpus.bins_with_idf(entity)
            directory = corpus.window_index(entity)
            assert sorted(annotated) == directory.windows.tolist()
            for window, offset, count in zip(
                directory.windows.tolist(),
                directory.offsets.tolist(),
                directory.counts.tolist(),
            ):
                cells = flats.cells[offset : offset + count].tolist()
                idf = flats.idf[offset : offset + count].tolist()
                assert [cell for cell, _ in annotated[window]] == cells
                for (_, expected), got in zip(annotated[window], idf):
                    assert got == pytest.approx(expected, abs=1e-12)
