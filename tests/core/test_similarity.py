"""Unit tests for the similarity score (Eq. 2) and its engine."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.corpus import HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.score_cache import ScoreCache
from repro.core.similarity import SimilarityConfig, SimilarityEngine, SimilarityStats
from repro.exec import TaskError, create_executor
from repro.geo.cell import CellId
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)
LEVEL = 12

# Locations ~3.3 km apart (same window -> positive proximity at default R)
SF_A = (37.7749, -122.4194)
SF_B = (37.8000, -122.4000)
# ~20 km away: different cell well beyond the cell-distance clamp but still
# inside the 30 km runaway -> reduced, positive proximity.
SF_MID = (37.9200, -122.2400)
# ~90 km away: beyond the 30 km runaway at 15-minute windows -> alibi.
FAR = (38.5000, -121.7000)


def _history(entity, rows):
    array = np.asarray(rows, dtype=np.float64)
    return MobilityHistory.from_columns(
        entity, array[:, 0], array[:, 1], array[:, 2], WINDOWING, LEVEL
    )


# A far-away, far-future record keeping corpus IDF informative: with a
# second entity per side, a bin unique to u/v has idf = ln(2) > 0.  (With a
# single-entity corpus every bin has df = |U| = 1, so idf = 0 and every
# score degenerates to 0 — exactly what Eq. 3 prescribes.)
BACKGROUND = [(9_000_000.0, 10.0, 10.0)]


def _engine(left_rows, right_rows, config=None, extra_left=None, extra_right=None):
    """Build a two-corpus engine; extra_* add more entities for IDF realism."""
    left = {"u": _history("u", left_rows), "bgL": _history("bgL", BACKGROUND)}
    right = {"v": _history("v", right_rows), "bgR": _history("bgR", BACKGROUND)}
    for k, rows in enumerate(extra_left or []):
        left[f"lx{k}"] = _history(f"lx{k}", rows)
    for k, rows in enumerate(extra_right or []):
        right[f"rx{k}"] = _history(f"rx{k}", rows)
    config = config or SimilarityConfig()
    return SimilarityEngine(
        HistoryCorpus(left, LEVEL), HistoryCorpus(right, LEVEL), config
    )


class TestConfig:
    def test_defaults_match_paper(self):
        config = SimilarityConfig()
        assert config.window_width_minutes == 15.0
        assert config.spatial_level == 12
        assert config.b == 0.5
        assert config.runaway_meters == pytest.approx(30_000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimilarityConfig(window_width_minutes=0)
        with pytest.raises(ValueError):
            SimilarityConfig(b=1.5)
        with pytest.raises(ValueError):
            SimilarityConfig(pairing="nearest")
        with pytest.raises(ValueError):
            SimilarityConfig(spatial_level=40)

    def test_without_creates_modified_copy(self):
        config = SimilarityConfig()
        ablated = config.without(use_idf=False)
        assert not ablated.use_idf
        assert config.use_idf

    def test_level_mismatch_raises(self):
        history = {"u": _history("u", [(0.0, *SF_A)])}
        corpus = HistoryCorpus(history, 10)
        with pytest.raises(ValueError):
            SimilarityEngine(corpus, corpus, SimilarityConfig(spatial_level=12))


class TestScoreProperties:
    def test_same_cell_same_window_positive(self):
        engine = _engine([(0.0, *SF_A)], [(10.0, *SF_A)])
        assert engine.score("u", "v") > 0.0

    def test_temporal_asynchrony_not_penalised(self):
        """Records in disjoint windows contribute nothing — not a penalty."""
        engine = _engine(
            [(0.0, *SF_A), (1000.0, *SF_A)],
            [(10.0, *SF_A), (2000.0, *SF_A)],  # window 2 only on right
        )
        engine_sync = _engine(
            [(0.0, *SF_A), (1000.0, *SF_A)],
            [(10.0, *SF_A)],
        )
        # The extra asynchronous right-side record changes only the length
        # norm, never subtracts matched evidence.
        assert engine.score("u", "v") > 0.0
        assert engine_sync.score("u", "v") > 0.0

    def test_alibi_penalises(self):
        close = _engine([(0.0, *SF_A)], [(10.0, *SF_A)])
        alibi = _engine([(0.0, *SF_A)], [(10.0, *FAR)])
        assert alibi.score("u", "v") < 0.0 < close.score("u", "v")

    def test_mfn_catches_hidden_alibi(self):
        """Paper's example: v visits a near cell AND a far (alibi) cell in
        the same window.  MNN alone misses the alibi; MFN subtracts it."""
        with_mfn = _engine(
            [(0.0, *SF_A)], [(10.0, *SF_A), (20.0, *FAR)]
        )
        without_mfn = _engine(
            [(0.0, *SF_A)],
            [(10.0, *SF_A), (20.0, *FAR)],
            config=SimilarityConfig(use_mfn=False),
        )
        assert with_mfn.score("u", "v") < without_mfn.score("u", "v")

    def test_closer_cells_score_higher(self):
        near = _engine([(0.0, *SF_A)], [(10.0, *SF_A)])
        farther = _engine([(0.0, *SF_A)], [(10.0, *SF_MID)])
        assert near.score("u", "v") > farther.score("u", "v")

    def test_idf_awards_unique_bins(self):
        """A match in a bin shared by many entities is worth less than a
        match in a bin unique to the pair."""
        crowd = [[(0.0, *SF_A)] for _ in range(8)]
        crowded = _engine(
            [(0.0, *SF_A)], [(10.0, *SF_A)], extra_left=crowd, extra_right=crowd
        )
        empty_crowd = [[(5000.0, *SF_B)] for _ in range(8)]
        unique = _engine(
            [(0.0, *SF_A)], [(10.0, *SF_A)], extra_left=empty_crowd, extra_right=empty_crowd
        )
        assert unique.score("u", "v") > crowded.score("u", "v")

    def test_no_idf_ablation_ignores_frequency(self):
        config = SimilarityConfig(use_idf=False)
        crowd = [[(0.0, *SF_A)] for _ in range(8)]
        crowded = _engine(
            [(0.0, *SF_A)], [(10.0, *SF_A)],
            config=config, extra_left=crowd, extra_right=crowd,
        )
        empty_crowd = [[(5000.0, *SF_B)] for _ in range(8)]
        unique = _engine(
            [(0.0, *SF_A)], [(10.0, *SF_A)],
            config=config, extra_left=empty_crowd, extra_right=empty_crowd,
        )
        # Without IDF the crowd cannot matter (up to length-norm equality).
        assert crowded.score("u", "v") == pytest.approx(unique.score("u", "v"))

    def test_normalization_shrinks_long_histories(self):
        """With b=1, a history with many bins contributes proportionally
        less per bin than the corpus average."""
        long_rows = [(900.0 * k, *SF_A) for k in range(10)]
        short_rows = [(0.0, *SF_A)]
        histories_left = {
            "long": _history("long", long_rows),
            "short": _history("short", short_rows),
        }
        histories_right = {
            "v": _history("v", long_rows),
            "bgR": _history("bgR", BACKGROUND),
        }
        engine = SimilarityEngine(
            HistoryCorpus(histories_left, LEVEL),
            HistoryCorpus(histories_right, LEVEL),
            SimilarityConfig(b=1.0),
        )
        engine_no_norm = SimilarityEngine(
            HistoryCorpus(histories_left, LEVEL),
            HistoryCorpus(histories_right, LEVEL),
            SimilarityConfig(use_normalization=False),
        )
        assert engine.score("long", "v") < engine_no_norm.score("long", "v")

    def test_b_zero_equals_no_normalization(self):
        rows_u, rows_v = [(0.0, *SF_A)], [(10.0, *SF_A), (950.0, *SF_B)]
        b_zero = _engine(rows_u, rows_v, config=SimilarityConfig(b=0.0))
        no_norm = _engine(rows_u, rows_v, config=SimilarityConfig(use_normalization=False))
        assert b_zero.score("u", "v") == pytest.approx(no_norm.score("u", "v"))

    def test_all_pairs_overcounts_relative_to_mnn(self):
        """All-pairs counts every combination, MNN one per bin: with two
        same-cell bins the all-pairs score is strictly larger."""
        rows_u = [(0.0, *SF_A), (10.0, *SF_B)]
        rows_v = [(20.0, *SF_A), (30.0, *SF_B)]
        mnn = _engine(rows_u, rows_v)
        ap = _engine(rows_u, rows_v, config=SimilarityConfig(pairing="all_pairs"))
        assert ap.score("u", "v") > mnn.score("u", "v")

    def test_score_is_symmetric_for_symmetric_corpora(self):
        rows_a, rows_b = [(0.0, *SF_A)], [(10.0, *SF_B)]
        forward = _engine(rows_a, rows_b).score("u", "v")
        backward = _engine(rows_b, rows_a).score("u", "v")
        assert forward == pytest.approx(backward)

    def test_no_common_windows_scores_zero(self):
        engine = _engine([(0.0, *SF_A)], [(5000.0, *SF_A)])
        assert engine.score("u", "v") == 0.0


class TestStats:
    def test_bin_comparisons_counted(self):
        engine = _engine([(0.0, *SF_A), (10.0, *SF_B)], [(20.0, *SF_A)])
        _, stats = engine.score_with_stats("u", "v")
        assert stats.bin_comparisons == 2  # 2 x 1 cells in the one window
        assert stats.common_windows == 1

    def test_alibi_counted(self):
        engine = _engine([(0.0, *SF_A)], [(10.0, *FAR)])
        _, stats = engine.score_with_stats("u", "v")
        assert stats.alibi_bin_pairs == 1
        assert stats.alibi_entity_pairs == 1

    def test_stats_start_at_zero(self):
        engine = _engine([(0.0, *SF_A)], [(10.0, *SF_A)])
        assert engine.stats == SimilarityStats()

    def test_stats_merge_adds_every_counter(self):
        total = SimilarityStats(1, 2, 3, 4, 5)
        total.merge(SimilarityStats(10, 20, 30, 40, 50))
        assert total == SimilarityStats(11, 22, 33, 44, 55)

    def test_stats_accumulate(self):
        engine = _engine([(0.0, *SF_A)], [(10.0, *SF_A)])
        engine.score("u", "v")
        engine.score("u", "v")
        assert engine.stats.pairs_scored == 2

    def test_oracle_distance_memo_is_symmetric(self):
        engine = _engine(
            [(0.0, *SF_A)], [(10.0, *SF_MID)],
            config=SimilarityConfig(backend="python"),
        )
        cell_u = engine.left.history("u").bins(LEVEL)[0][0]
        cell_v = engine.right.history("v").bins(LEVEL)[0][0]
        expected = CellId(cell_u).distance_meters(CellId(cell_v))
        assert expected > 0.0
        for _ in range(2):  # computed, then served from the memo
            assert engine.distance(cell_u, cell_v) == expected
            assert engine.distance(cell_v, cell_u) == expected

    def test_distance_same_cell_zero_without_cache(self):
        engine = _engine([(0.0, *SF_A)], [(10.0, *SF_A)])
        cell = engine.left.history("u").bins(LEVEL)[0][0]
        assert engine.distance(cell, cell) == 0.0


class TestErrors:
    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_unknown_entity_is_a_key_error(self, backend, cached):
        """Whatever the backend, with or without a score cache — and on
        the numpy route *before* a block is dispatched: a block task that
        raises is the executor's to retry, and would surface as a
        ``TaskError`` after the backoff sleeps instead."""
        built = _engine([(0.0, *SF_A)], [(10.0, *SF_A)])
        engine = SimilarityEngine(
            built.left,
            built.right,
            SimilarityConfig(backend=backend),
            score_cache=ScoreCache() if cached else None,
        )
        executor = create_executor("serial")
        with pytest.raises(KeyError, match="nobody"):
            engine.score("u", "nobody")
        with pytest.raises(KeyError, match="nobody"):
            engine.score_batch([("u", "v"), ("nobody", "v")], executor)
        assert executor.stats.dispatches == 0
        if backend == "numpy":  # the oracle's loop scored ("u", "v") first
            assert engine.stats.pairs_scored == 0

    def test_a_failing_block_task_is_a_task_error(self, monkeypatch):
        """``"serial"`` is an executor like the others: an exception
        inside a block task is retried within the budget, then raised as
        a ``TaskError`` naming the original type and message."""

        def broken(left, right, pairs, config):
            raise ValueError("kernel bug")

        monkeypatch.setattr(kernels, "score_pairs_batch", broken)
        engine = _engine([(0.0, *SF_A)], [(10.0, *SF_A)])
        executor = create_executor("serial", retries=1, backoff=0.0)
        with pytest.raises(TaskError, match="ValueError: kernel bug"):
            engine.score_batch([("u", "v")], executor)
        assert (executor.stats.faults, executor.stats.retries) == (2, 1)
        assert engine.stats.pairs_scored == 0
