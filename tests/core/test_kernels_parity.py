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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.corpus import HistoryCorpus
from repro.core.history import MobilityHistory, build_histories
from repro.core.kernels import greedy_select_batch, score_pairs_batch
from repro.core.pairing import greedy_index_pairs
from repro.core.similarity import SimilarityConfig, SimilarityEngine
from repro.pipeline import LinkageConfig, LinkagePipeline
from repro.data.records import LocationDataset, Record
from repro.temporal import Windowing, common_windowing

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
        one large exact-shape pairing tensor (and the MFN pass) hard."""
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
    def test_vector_shapes_pick_the_first_extreme_entry(self, reverse):
        """A ``1 x n`` or ``m x 1`` matrix selects one entry: the first
        smallest (MNN) or the first largest (MFN)."""
        values = np.array([3.0, 1.0, 1.0, 5.0, 5.0, 2.0])
        expected = 3 if reverse else 1
        for matrix in (values[None, :], values[:, None]):
            mask = greedy_select_batch(matrix[None], reverse)[0]
            assert np.flatnonzero(mask.reshape(-1)).tolist() == [expected]
            [(iu, iv, _)] = greedy_index_pairs(matrix.tolist(), reverse)
            assert mask[iu, iv]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_random_exact_shape_groups_match_the_scalar_greedy(self, reverse):
        """Untied distances, several matrices of one exact shape at once."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            group = rng.random((int(rng.integers(1, 5)), rows, cols)) * 100
            masks = greedy_select_batch(group, reverse)
            for mask, matrix in zip(masks, group):
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


# ---------------------------------------------------------------------------
# Distance table, exact-shape groups, pairing by rounds, one fold
# ---------------------------------------------------------------------------
@st.composite
def _exact_shape_groups(draw):
    """A ``(B, m, n)`` group the way the kernel gathers one: every matrix
    has the same exact shape (``1 x 1``, ``1 x n``, ``m x 1`` and
    ``2 x 2`` among them), values tie heavily, and rows may repeat."""
    rows, cols = draw(
        st.one_of(
            st.just((1, 1)),
            st.tuples(st.just(1), st.integers(2, 5)),
            st.tuples(st.integers(2, 5), st.just(1)),
            st.just((2, 2)),
            st.tuples(st.integers(2, 5), st.integers(2, 5)),
        )
    )
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    row = st.lists(values, min_size=cols, max_size=cols)
    matrices = []
    for _ in range(draw(st.integers(1, 6))):
        matrix = draw(st.lists(row, min_size=rows, max_size=rows))
        if rows > 1 and draw(st.booleans()):
            matrix[draw(st.integers(1, rows - 1))] = list(matrix[0])  # equal rows
        matrices.append(matrix)
    return np.array(matrices)


class TestPairingByRounds:
    @given(group=_exact_shape_groups())
    @settings(max_examples=200, deadline=None)
    def test_exact_shape_groups_match_the_scalar_greedy(self, group):
        _, rows, cols = group.shape
        before = group.copy()
        for reverse in (False, True):
            masks = greedy_select_batch(group, reverse)
            assert (group == before).all()  # the caller's tensor is not consumed
            for mask, matrix in zip(masks, group):
                scalar = {
                    (iu, iv)
                    for iu, iv, _ in greedy_index_pairs(matrix.tolist(), reverse)
                }
                assert {(i, j) for i, j in zip(*np.nonzero(mask))} == scalar
                # min(m, n) picks, at most one per row and per column.
                assert mask.sum() == min(rows, cols)
                assert mask.sum(axis=1).max() == 1 == mask.sum(axis=0).max()
                # A matrix selects the same alone as in its group.
                alone = greedy_select_batch(matrix[None], reverse)[0]
                assert (alone == mask).all()

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 4), (4, 3)], ids=str
    )
    def test_every_matrix_of_a_group_selects_min_m_n_entries(self, shape, reverse):
        """Two matrices of one shape, ordered oppositely, open at opposite
        corners in the same round and each select ``min(m, n)`` entries,
        one per row and column."""
        ascending = np.arange(float(shape[0] * shape[1])).reshape(shape)
        group = np.stack([ascending, ascending[::-1, ::-1]])
        masks = greedy_select_batch(group, reverse)
        for mask, matrix in zip(masks, group):
            assert mask.sum() == min(shape)
            assert mask.sum(axis=1).max() == 1 == mask.sum(axis=0).max()
            scalar = {
                (iu, iv)
                for iu, iv, _ in greedy_index_pairs(matrix.tolist(), reverse)
            }
            assert {(i, j) for i, j in zip(*np.nonzero(mask))} == scalar
        first, last = ((-1, -1), (0, 0)) if reverse else ((0, 0), (-1, -1))
        assert masks[0][first] and masks[1][last]


def _cab_corpora(cab_pair):
    windowing = common_windowing(
        (cab_pair.left.time_range(), cab_pair.right.time_range()), 900.0
    )
    return (
        HistoryCorpus(build_histories(cab_pair.left, windowing, LEVEL), LEVEL),
        HistoryCorpus(build_histories(cab_pair.right, windowing, LEVEL), LEVEL),
    )


def _assert_results_equal(got, expected):
    for column, reference in zip(got, expected):
        assert column.tolist() == reference.tolist()


class TestDistanceTable:
    @pytest.mark.parametrize(
        "config", [SimilarityConfig(), SimilarityConfig(pairing="all_pairs")],
        ids=["mnn", "all_pairs"],
    )
    def test_table_arm_equals_direct_arm(self, cab_pair, monkeypatch, config):
        """One city block of pairs tabulates (one distance call, over the
        whole cell-by-cell table); each of its pairs alone does not (the
        table would cost more than the pair's comparisons) — and scores
        and counters agree bit for bit."""
        left, right = _cab_corpora(cab_pair)
        table_shape = (len(left.cell_table().lat), len(right.cell_table().lat))
        shapes = []
        cell_distances = kernels._cell_distances

        def recording(*columns):
            distances = cell_distances(*columns)
            shapes.append(distances.shape)
            return distances

        monkeypatch.setattr(kernels, "_cell_distances", recording)
        pairs = [(u, v) for u in left.entities for v in right.entities]
        block = score_pairs_batch(left, right, pairs, config)
        assert shapes == [table_shape]
        assert int(block.bin_comparisons.sum()) >= table_shape[0] * table_shape[1]

        shapes.clear()
        alone = kernels.concat_results(
            [score_pairs_batch(left, right, [pair], config) for pair in pairs]
        )
        assert shapes and table_shape not in shapes
        assert {len(shape) for shape in shapes} == {3}  # (B, m, n) groups only
        assert int(block.bin_comparisons.max()) < table_shape[0] * table_shape[1]
        _assert_results_equal(alone, block)

    @pytest.mark.parametrize(
        "config", [SimilarityConfig(), SimilarityConfig(pairing="all_pairs")],
        ids=["mnn", "all_pairs"],
    )
    def test_a_table_with_cells_beyond_the_runaway(self, monkeypatch, config):
        """A dispatch that tabulates (four cells a side, over a thousand
        comparisons) where one cell of each side lies cities away: its
        alibi counts and MFN terms come from the table arm, and agree
        with the scalar oracle."""
        rng = np.random.default_rng(606)
        city = [(37.77, -122.42), (37.80, -122.45), (37.74, -122.39)]
        away = {"l": (38.58, -121.49), "r": (36.74, -119.79)}

        def histories(prefix):
            cells = city + [away[prefix]]
            out = {}
            for index in range(6):
                rows = [
                    (900.0 * window + 60.0 * k, *cells[cell])
                    for window in range(10)
                    for k, cell in enumerate(
                        rng.choice(4, size=int(rng.integers(1, 4)), replace=False)
                    )
                ]
                out[f"{prefix}{index}"] = MobilityHistory.from_columns(
                    f"{prefix}{index}",
                    *np.asarray(rows, dtype=np.float64).T,
                    WINDOWING,
                    LEVEL,
                )
            return out

        shapes = []
        cell_distances = kernels._cell_distances

        def recording(*columns):
            distances = cell_distances(*columns)
            shapes.append(distances.shape)
            return distances

        monkeypatch.setattr(kernels, "_cell_distances", recording)
        left, right = histories("l"), histories("r")
        pairs = [(u, v) for u in left for v in right]
        s_scores, s_stats, v_scores, v_stats = _score_both(left, right, config, pairs)
        assert shapes == [(4, 4)]  # one dispatch, and it tabulated
        assert v_stats.bin_comparisons > 1000
        _assert_scores_match(s_scores, v_scores)
        _assert_stats_match(s_stats, v_stats)
        assert v_stats.alibi_bin_pairs > 0

    def test_the_table_is_not_kept(self, cab_pair):
        """Derived per dispatch, never captured: nothing distance-shaped
        survives on the module or the corpora."""
        left, right = _cab_corpora(cab_pair)
        pairs = [(u, v) for u in left.entities for v in right.entities]
        before = (set(vars(kernels)), set(vars(left)), set(vars(right)))
        score_pairs_batch(left, right, pairs, SimilarityConfig())
        assert (set(vars(kernels)), set(vars(left)), set(vars(right))) == before


class TestAccumulationOrder:
    @pytest.mark.parametrize("world", ["random", "cab"])
    def test_a_pairs_total_ignores_its_companions(self, world, cab_pair):
        """Whether a pair's interactions share shape groups with other
        pairs' or not — whole block, reversed block, every other
        pair, alone — its total and counters are the same bits."""
        if world == "cab":
            left, right = _cab_corpora(cab_pair)
        else:
            rng = np.random.default_rng(505)
            left = HistoryCorpus(_random_histories("l", 8, rng), LEVEL)
            right = HistoryCorpus(_random_histories("r", 8, rng), LEVEL)
        config = SimilarityConfig()
        pairs = [(u, v) for u in left.entities for v in right.entities]
        block = score_pairs_batch(left, right, pairs, config)
        assert (block.bin_comparisons > block.common_windows).any()  # matrices
        backwards = score_pairs_batch(left, right, pairs[::-1], config)
        _assert_results_equal([column[::-1] for column in backwards], block)
        sparse = score_pairs_batch(left, right, pairs[::2], config)
        _assert_results_equal(sparse, [column[::2] for column in block])
        for index in range(0, len(pairs), 7):
            alone = score_pairs_batch(left, right, [pairs[index]], config)
            _assert_results_equal(
                alone, [column[index : index + 1] for column in block]
            )

    def test_column_sums_repeat_the_row_sums_bit_for_bit(self):
        """The kernel sums a shape group's ``(k, B)`` entries down their
        columns; each column must come out in the bits of the row sum of
        the contiguous ``(B, k)`` layout, for every ``k`` a matrix can
        have here — with and without a selection mask, over values mixing
        zeros, ``-0.0``, negatives and magnitudes far apart."""
        rng = np.random.default_rng(707)
        for k in range(1, 65):
            values = rng.normal(size=(k, 300)) * 10.0 ** rng.integers(-8, 9, (k, 300))
            draw = rng.random((k, 300))
            values[draw < 0.2] = 0.0
            values[draw > 0.8] = -0.0
            values[:, :10] = -0.0  # columns of negative zeros only
            mask = rng.random((k, 300)) < 0.5
            for got, rows in (
                (kernels._column_sums(values), values.T),
                (kernels._column_sums(values, mask), np.where(mask, values, 0.0).T),
            ):
                expected = np.ascontiguousarray(rows).sum(axis=1)
                assert got.tobytes() == expected.tobytes(), k
