"""Retention: policy units, corpus removal deltas, eviction parity.

The acceptance contract pinned here: a relink after entity retirement is
**bit-identical** to a cold run over the surviving entities — links,
scores, counters — and the retired entities' footprint (corpus flats, df
slots, LSH placements, score-cache rows) is actually reclaimed.
"""

import numpy as np
import pytest

from cache_calls import capture_rows
from lsh_calls import placements
from repro.core.corpus import CorpusDelta, HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.retention import (
    MaxEntitiesRetention,
    NoRetention,
    SlidingWindowRetention,
    build_retention,
    retention_policies,
)
from repro.core.score_cache import ScoreCache
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh import LshConfig
from repro.pipeline import LinkageConfig
from repro.temporal import Windowing

WIDTH = 900.0


def _history(eid, times, lat=37.77, lng=-122.42, level=12):
    t = np.asarray(times, dtype=np.float64)
    return MobilityHistory.from_columns(
        eid, t, np.full(t.shape, lat), np.full(t.shape, lng),
        Windowing(0.0, WIDTH), level,
    )


# ---------------------------------------------------------------------------
# policy units
# ---------------------------------------------------------------------------
class TestPolicies:
    def test_registry_has_builtins(self):
        assert {"none", "sliding_window", "max_entities"} <= set(
            retention_policies.names()
        )

    def test_build_retention_unknown_name(self):
        with pytest.raises(KeyError, match="retention policy"):
            build_retention("lru", 4)

    @pytest.mark.parametrize("cls", [SlidingWindowRetention, MaxEntitiesRetention])
    def test_window_must_be_positive(self, cls):
        with pytest.raises(ValueError):
            cls(0)

    def test_none_keeps_everything(self):
        histories = {"a": _history("a", [10.0])}
        assert NoRetention(0).retire(histories, 10_000) == set()

    def test_sliding_window_retires_by_activity_age(self):
        histories = {
            "old": _history("old", [10.0]),            # window 0
            "mid": _history("mid", [10.0, 5 * WIDTH]),  # latest window 5
            "new": _history("new", [9 * WIDTH]),        # window 9
        }
        policy = SlidingWindowRetention(4)
        # current window 9: horizon = 5; "old" (0) is out, "mid" (5) in.
        assert policy.retire(histories, 9) == {"old"}
        # A wider window keeps everyone.
        assert SlidingWindowRetention(20).retire(histories, 9) == set()

    def test_sliding_window_never_empties_a_side(self):
        histories = {
            "a": _history("a", [10.0]),
            "b": _history("b", [WIDTH]),  # most recent; ties impossible
        }
        doomed = SlidingWindowRetention(1).retire(histories, 1000)
        assert doomed == {"a"}  # "b" spared despite being out of window

    def test_max_entities_is_lru_by_last_activity(self):
        histories = {
            "a": _history("a", [10.0]),
            "b": _history("b", [10.0, 3 * WIDTH]),
            "c": _history("c", [6 * WIDTH]),
        }
        assert MaxEntitiesRetention(2).retire(histories, 6) == {"a"}
        assert MaxEntitiesRetention(1).retire(histories, 6) == {"a", "b"}
        assert MaxEntitiesRetention(3).retire(histories, 6) == set()

    def test_max_entities_ties_break_on_entity_id(self):
        histories = {
            "b": _history("b", [10.0]),
            "a": _history("a", [10.0]),
            "c": _history("c", [WIDTH]),
        }
        # Same latest window: the smaller id goes first.
        assert MaxEntitiesRetention(2).retire(histories, 1) == {"a"}


# ---------------------------------------------------------------------------
# corpus removal deltas
# ---------------------------------------------------------------------------
class TestCorpusEviction:
    def _histories(self):
        return {
            "a": _history("a", [10.0, 950.0], lat=37.77),
            "b": _history("b", [20.0], lat=37.77),
            "c": _history("c", [2000.0], lat=37.90, lng=-122.10),
        }

    def test_eviction_reported_and_stats_match_fresh(self):
        histories = self._histories()
        corpus = HistoryCorpus(histories, 12)
        corpus.arrays()  # materialise before the delta
        del histories["b"]
        delta = corpus.refresh()
        assert delta.evicted == ("b",)
        assert delta.dirty_entities == ()
        assert delta != CorpusDelta(())
        # |U_E| moved: every idf shifted, so every clean resident.
        assert delta.idf_affected == ("a", "c")

        fresh = HistoryCorpus(dict(histories), 12)
        assert corpus.size == fresh.size == 2
        assert corpus.avg_bins == pytest.approx(fresh.avg_bins)
        for entity in fresh.entities:
            assert corpus.bins_with_idf(entity) == fresh.bins_with_idf(entity)
            assert corpus.relative_size(entity) == pytest.approx(
                fresh.relative_size(entity)
            )

    def test_eviction_compacts_flats_eagerly(self):
        histories = self._histories()
        corpus = HistoryCorpus(histories, 12)
        corpus.arrays()
        before = corpus.memory_stats()
        assert before["flat_entries"] == before["flat_live"] == 4
        del histories["a"]  # 2 of the 4 flat entries retire
        corpus.refresh()
        after = corpus.memory_stats()
        # Eager compaction: no garbage survives an eviction.
        assert after["flat_entries"] == after["flat_live"] == 2
        assert after["entities"] == 2

    def test_eviction_recycles_df_slots(self):
        histories = self._histories()
        corpus = HistoryCorpus(histories, 12)
        slots_before = corpus.memory_stats()["df_slots"]
        del histories["c"]  # its bin is held by nobody else
        corpus.refresh()
        assert corpus.memory_stats()["df_slots"] < slots_before
        window, cells = next(iter(histories["a"].bins(12).items()))
        assert corpus.document_frequency(window, cells[0]) > 0

    def test_eviction_with_shared_bin_reports_idf_drift(self):
        histories = {
            "a": _history("a", [10.0]),
            "b": _history("b", [20.0]),  # same bin as "a"
            "c": _history("c", [2000.0], lat=37.90, lng=-122.10),
        }
        corpus = HistoryCorpus(histories, 12)
        del histories["b"]
        delta = corpus.refresh()
        # The (window 0, shared cell) bin's df fell 2 -> 1 while staying
        # shared with the surviving "a" (and |U_E| moved with it).
        assert "a" in delta.idf_affected

    def test_eviction_then_regrowth_round_trips(self):
        histories = self._histories()
        corpus = HistoryCorpus(histories, 12)
        corpus.arrays()
        del histories["b"]
        corpus.refresh()
        histories["d"] = _history("d", [3000.0], lat=37.95, lng=-122.05)
        delta = corpus.refresh()
        assert delta.dirty_entities == ("d",)
        fresh = HistoryCorpus(dict(histories), 12)
        for entity in fresh.entities:
            assert corpus.bins_with_idf(entity) == fresh.bins_with_idf(entity)

    def test_refresh_refuses_to_empty_the_corpus(self):
        histories = {"a": _history("a", [10.0])}
        corpus = HistoryCorpus(histories, 12)
        del histories["a"]
        with pytest.raises(ValueError, match="empty"):
            corpus.refresh()
        # The guard fires *before* any retraction: statistics intact, and
        # restoring the entity makes the corpus fully usable again.
        assert corpus.size == 1
        assert corpus.memory_stats()["total_bins"] == 1
        histories["a"] = _history("a", [10.0])
        assert corpus.refresh() == CorpusDelta(())  # same version: nothing to do
        assert corpus.bins_with_idf("a")

    def test_eviction_before_arrays_built_is_fine(self):
        histories = self._histories()
        corpus = HistoryCorpus(histories, 12)
        del histories["b"]
        corpus.refresh()
        assert corpus.window_index("a") is not None
        assert "b" not in corpus._row_of


# ---------------------------------------------------------------------------
# streaming eviction parity
# ---------------------------------------------------------------------------
def _round_records(side, round_idx, per_side=5, windows_per_round=8,
                   records_per_entity=3):
    """Deterministic rolling workload: round r's entities are active only
    inside round r's window span; matching ids land on matching spots."""
    jitter = 0.0 if side == "left" else 1.5e-4
    records = []
    base = round_idx * windows_per_round * WIDTH
    for i in range(per_side):
        entity = f"e{round_idx}_{i}"
        for k in range(records_per_entity):
            records.append(
                Record(
                    entity,
                    37.5 + 0.01 * i + 0.001 * k + jitter,
                    -122.4 + 0.005 * round_idx + jitter,
                    base + (k * 2 + i % 2) * WIDTH + 30.0,
                )
            )
    return records


def _feed(linker, observed, round_idx, per_side=5):
    for side in ("left", "right"):
        batch = _round_records(side, round_idx, per_side=per_side)
        observed[side].extend(batch)
        linker.observe(side, batch)


def _stream(config=None, rounds=3, relink_each=True, **kwargs):
    linker = StreamingLinker(origin=0.0, config=config, **kwargs)
    observed = {"left": [], "right": []}
    for round_idx in range(rounds):
        _feed(linker, observed, round_idx)
        if relink_each:
            linker.relink()
    return linker, observed


def _cold_on_survivors(linker, observed, config=None):
    """A fresh linker fed only the surviving entities' records."""
    cold = StreamingLinker(origin=0.0, config=config)
    for side in ("left", "right"):
        survivors = set(linker._sides[side])
        cold.observe(
            side,
            [r for r in observed[side] if r.entity_id in survivors],
        )
    return cold.relink()


def _assert_bit_identical(result, cold_result):
    assert result.links == cold_result.links
    assert result.candidate_pairs == cold_result.candidate_pairs
    cold_scores = {(e.left, e.right): e.weight for e in cold_result.edges}
    scores = {(e.left, e.right): e.weight for e in result.edges}
    assert scores == cold_scores  # bit-identical, not approximate
    assert result.threshold.threshold == cold_result.threshold.threshold
    assert result.stats.bin_comparisons == cold_result.stats.bin_comparisons
    assert result.stats.common_windows == cold_result.stats.common_windows
    assert result.stats.alibi_bin_pairs == cold_result.stats.alibi_bin_pairs


class TestStreamingRetirement:
    def test_sliding_window_evicts_and_matches_cold(self):
        config = LinkageConfig(
            retention="sliding_window", retention_window=12, threshold="none"
        )
        linker, observed = _stream(config)
        _feed(linker, observed, 3)  # ages rounds 0-1 out of the window
        final = linker.relink()
        stats = linker.last_relink
        assert stats.evicted_left > 0 and stats.evicted_right > 0
        assert linker.num_left_entities == 10  # rounds 2-3 survive
        _assert_bit_identical(
            final, _cold_on_survivors(linker, observed, config)
        )

    def test_max_entities_evicts_and_matches_cold(self):
        config = LinkageConfig(
            retention="max_entities", retention_window=7, threshold="none"
        )
        linker, observed = _stream(config)
        linker.relink()
        assert linker.num_left_entities == 7
        assert linker.num_right_entities == 7
        final = linker.relink()  # zero-delta after the bound settled
        _assert_bit_identical(
            final, _cold_on_survivors(linker, observed, config)
        )

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_eviction_parity_per_backend(self, backend):
        from repro.core.similarity import SimilarityConfig

        config = LinkageConfig(
            similarity=SimilarityConfig(backend=backend),
            retention="sliding_window",
            retention_window=10,
            threshold="none",
        )
        linker, observed = _stream(config)
        _feed(linker, observed, 3)
        final = linker.relink()
        assert linker.last_relink.evicted_left > 0
        _assert_bit_identical(
            final, _cold_on_survivors(linker, observed, config)
        )

    def test_eviction_parity_with_lsh(self):
        """Pure-retirement delta under LSH: evictions with no new data
        must withdraw placements in place (no index rebuild) and still
        match a cold run over the survivors."""
        config = LinkageConfig(
            lsh=LshConfig(threshold=0.3, step_windows=8, spatial_level=14),
            threshold="none",
        )
        policy = SlidingWindowRetention(10_000)  # retires nothing yet
        linker = StreamingLinker(origin=0.0, config=config, retention=policy)
        observed = {"left": [], "right": []}
        for round_idx in range(4):
            _feed(linker, observed, round_idx)
            linker.relink()
        policy.window = 12  # tighten: rounds 0-1 now out of the window
        final = linker.relink()
        assert linker.last_relink.evicted_left > 0
        # Retirement alone must not force an index rebuild.
        assert not linker.last_relink.lsh_rebuilt
        _assert_bit_identical(
            final, _cold_on_survivors(linker, observed, config)
        )

    def test_lsh_placements_are_withdrawn(self):
        config = LinkageConfig(
            lsh=LshConfig(threshold=0.3, step_windows=8, spatial_level=14),
            retention="sliding_window",
            retention_window=10,
        )
        linker, _ = _stream(config)
        linker.relink()
        live = set(linker._sides["left"]) | set(linker._sides["right"])
        placed = placements(linker._lsh_index, linker.score_cache.entities)
        assert {entity for (_, entity) in placed} <= live
        assert linker.memory_stats()["lsh_entities"] == (
            linker.num_left_entities + linker.num_right_entities
        )

    def test_score_cache_rows_are_dropped(self):
        config = LinkageConfig(
            retention="sliding_window", retention_window=10, threshold="none"
        )
        linker, _ = _stream(config)
        linker.relink()
        live = set(linker._sides["left"]) | set(linker._sides["right"])
        for (_, left_entity, right_entity) in capture_rows(linker.score_cache.checkpoint()):
            assert left_entity in live and right_entity in live

    def test_retired_id_reobserved_restarts_cleanly(self):
        """An id that retires and later returns restarts at history
        version 0 — a stale cached row under matching versions would be
        served as a hit, so retirement must have dropped it."""
        config = LinkageConfig(
            retention="sliding_window", retention_window=6, threshold="none"
        )
        linker = StreamingLinker(origin=0.0, config=config)
        observed = {"left": [], "right": []}

        def feed(round_idx):
            for side in ("left", "right"):
                batch = _round_records(side, round_idx, per_side=3)
                observed[side].extend(batch)
                linker.observe(side, batch)

        feed(0)
        linker.relink()
        retired_records = {
            side: list(observed[side]) for side in ("left", "right")
        }
        feed(2)  # round 0 ages out (span 8 windows/round > window 6)
        linker.relink()
        assert linker.last_relink.evicted_left == 3
        # The round-0 ids come back with *different* geometry.
        for side in ("left", "right"):
            jitter = 0.0 if side == "left" else 1.5e-4
            returned = [
                Record(f"e0_{i}", 37.9 + 0.01 * i + jitter, -122.3 + jitter,
                       (2 * 8 + 5) * WIDTH + 60.0 * i)
                for i in range(3)
            ]
            observed[side].extend(returned)
            linker.observe(side, returned)
        final = linker.relink()
        # Retirement dropped the ids' round-0 data for good: the cold
        # reference holds each survivor's records *since its last
        # (re)creation* — exactly what the incremental linker holds.
        reference = {
            side: [r for r in observed[side]
                   if r not in retired_records[side]]
            for side in ("left", "right")
        }
        cold = StreamingLinker(origin=0.0, config=config)
        cold.observe("left", reference["left"])
        cold.observe("right", reference["right"])
        _assert_bit_identical(final, cold.relink())

    def test_explicit_policy_object_wins_over_config(self):
        linker = StreamingLinker(
            origin=0.0,
            retention=MaxEntitiesRetention(4),
        )
        for side in ("left", "right"):
            linker.observe(side, _round_records(side, 0, per_side=6))
        linker.relink()
        assert linker.num_left_entities == 4

    def test_attached_score_cache_is_used(self):
        cache = ScoreCache()
        linker = StreamingLinker(origin=0.0, score_cache=cache)
        for side in ("left", "right"):
            linker.observe(side, _round_records(side, 0))
        linker.relink()
        assert linker.score_cache is cache
        assert len(cache) > 0

    def test_lsh_candidates_without_lsh_config_errors_by_name(self):
        linker = StreamingLinker(
            origin=0.0, config=LinkageConfig(candidates="lsh")
        )
        for side in ("left", "right"):
            linker.observe(side, _round_records(side, 0, per_side=2))
        with pytest.raises(ValueError, match="LinkageConfig.lsh"):
            linker.relink()

    def test_no_retention_keeps_everything(self):
        linker, _ = _stream(LinkageConfig(threshold="none"))
        linker.relink()
        assert linker.num_left_entities == 15
        assert linker.last_relink.evicted_left == 0

    def test_memory_stays_bounded_while_baseline_grows(self):
        bounded, _ = _stream(
            LinkageConfig(
                retention="sliding_window", retention_window=12,
                threshold="none",
            ),
            rounds=4,
        )
        unbounded, _ = _stream(LinkageConfig(threshold="none"), rounds=4)
        bounded_stats = bounded.memory_stats()
        unbounded_stats = unbounded.memory_stats()
        assert bounded_stats["left_entities"] < unbounded_stats["left_entities"]
        assert (
            bounded_stats["left_flat_entries"]
            < unbounded_stats["left_flat_entries"]
        )
        # Eager compaction: after an eviction round, no garbage survives.
        assert (
            bounded_stats["left_flat_entries"]
            == bounded_stats["left_flat_live"]
        )
        assert bounded_stats["left_df_slots"] < unbounded_stats["left_df_slots"]
