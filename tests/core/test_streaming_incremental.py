"""Incremental relink machinery: cold-parity, cache reuse, delta corpora.

The contract pinned here is the one the streaming benchmark relies on: an
incremental ``relink()`` after a delta must produce **exactly** the links
(and, to 1e-9, the scores) of a cold relink over the same records, while
re-scoring only the pairs the delta could have touched.
"""

import numpy as np
import pytest

from cache_calls import lookup, store
from repro.core.corpus import HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.score_cache import ScoreCache
from repro.core.similarity import SimilarityConfig
from repro.pipeline import LinkageConfig
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh import LshConfig
from repro.temporal import Windowing


def _split_records(pair, fraction=0.75, moved_entities=()):
    """Split a linkage pair's records into (initial, delta) streams.

    Entities in ``moved_entities`` contribute their late records to the
    delta; everyone else's records are all initial — so the delta dirties
    only a handful of histories, like a real trickle of updates.
    """
    start = min(pair.left.time_range()[0], pair.right.time_range()[0])
    end = max(pair.left.time_range()[1], pair.right.time_range()[1])
    cut = start + fraction * (end - start)
    initial = {"left": [], "right": []}
    delta = {"left": [], "right": []}
    for side, dataset in (("left", pair.left), ("right", pair.right)):
        for record in dataset.records():
            late = record.timestamp > cut and record.entity_id in moved_entities
            (delta if late else initial)[side].append(record)
    return start, initial, delta


def _warm_linker(origin, initial, config):
    linker = StreamingLinker(origin=origin, config=config)
    linker.observe("left", initial["left"])
    linker.observe("right", initial["right"])
    return linker


def _cold_result(origin, initial, delta, config):
    """A from-scratch linker fed *all* records, relinked once."""
    linker = StreamingLinker(origin=origin, config=config)
    linker.observe("left", initial["left"] + delta["left"])
    linker.observe("right", initial["right"] + delta["right"])
    return linker.relink()


def _assert_results_match(incremental, cold):
    assert incremental.links == cold.links
    assert incremental.candidate_pairs == cold.candidate_pairs
    cold_scores = {(e.left, e.right): e.weight for e in cold.edges}
    inc_scores = {(e.left, e.right): e.weight for e in incremental.edges}
    assert inc_scores.keys() == cold_scores.keys()
    for key, weight in cold_scores.items():
        assert inc_scores[key] == pytest.approx(weight, abs=1e-9)
    assert incremental.threshold.threshold == pytest.approx(
        cold.threshold.threshold, abs=1e-9
    )
    assert incremental.stats.bin_comparisons == cold.stats.bin_comparisons
    assert incremental.stats.common_windows == cold.stats.common_windows
    assert incremental.stats.alibi_bin_pairs == cold.stats.alibi_bin_pairs


class TestIncrementalColdParity:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_delta_relink_equals_cold_relink(self, cab_pair, backend):
        """The acceptance contract: incremental == cold, bit for bit on
        links, 1e-9 on scores, counter for counter on stats."""
        config = LinkageConfig(similarity=SimilarityConfig(backend=backend))
        moved = set(cab_pair.left.entities[:3]) | set(cab_pair.right.entities[:2])
        origin, initial, delta = _split_records(cab_pair, moved_entities=moved)

        linker = _warm_linker(origin, initial, config)
        linker.relink()  # warm relink over the initial state
        linker.observe("left", delta["left"])
        linker.observe("right", delta["right"])
        incremental = linker.relink()

        _assert_results_match(incremental, _cold_result(origin, initial, delta, config))

    def test_sparse_delta_mostly_reuses_the_cache(self, sm_pair):
        """On a sparse corpus a small delta leaves most pairs untouched:
        the relink must serve them from the cache (dense corpora couple
        more pairs through shared-bin IDF drift, and legitimately rescore
        more)."""
        config = LinkageConfig()
        moved = set(sm_pair.left.entities[:5])
        origin, initial, delta = _split_records(sm_pair, moved_entities=moved)

        linker = _warm_linker(origin, initial, config)
        linker.relink()
        linker.observe("left", delta["left"])
        incremental = linker.relink()
        stats = linker.last_relink
        assert stats.pairs_rescored < stats.candidate_pairs / 2
        assert stats.cache_hits + stats.pairs_rescored == stats.candidate_pairs

        _assert_results_match(incremental, _cold_result(origin, initial, delta, config))

    def test_delta_relink_with_lsh(self, cab_pair):
        config = LinkageConfig(
            lsh=LshConfig(threshold=0.4, step_windows=8, spatial_level=14)
        )
        moved = set(cab_pair.left.entities[:3])
        origin, initial, delta = _split_records(cab_pair, moved_entities=moved)

        linker = _warm_linker(origin, initial, config)
        linker.relink()
        linker.observe("left", delta["left"])
        incremental = linker.relink()
        assert not linker.last_relink.lsh_rebuilt

        _assert_results_match(incremental, _cold_result(origin, initial, delta, config))

    def test_new_entity_delta_still_exact(self, cab_pair):
        """Adding an entity changes |U_E| and so *every* IDF; the global
        drift must invalidate the whole side rather than serve stale
        totals."""
        config = LinkageConfig()
        newcomer = cab_pair.left.entities[0]
        origin, initial, delta = _split_records(cab_pair, moved_entities=())
        held_back = [r for r in initial["left"] if r.entity_id == newcomer]
        initial["left"] = [r for r in initial["left"] if r.entity_id != newcomer]
        delta["left"] = held_back

        linker = _warm_linker(origin, initial, config)
        linker.relink()
        linker.observe("left", delta["left"])
        incremental = linker.relink()
        # Every cached pair total was IDF-invalidated (corpus size moved).
        assert linker.last_relink.pairs_rescored == linker.last_relink.candidate_pairs

        _assert_results_match(incremental, _cold_result(origin, initial, delta, config))


class TestStreamingEdgeCases:
    def _records(self, entity, base, lat, lng, count=6, period=900.0):
        return [
            Record(entity, lat + 1e-4 * k, lng, base + period * k)
            for k in range(count)
        ]

    def test_zero_delta_relink_is_cache_noop(self, cab_pair):
        origin, initial, _ = _split_records(cab_pair)
        linker = _warm_linker(origin, initial, LinkageConfig())
        first = linker.relink()
        again = linker.relink()
        stats = linker.last_relink
        assert stats.pairs_rescored == 0
        assert stats.dirty_left == 0 and stats.dirty_right == 0
        assert stats.idf_invalidated == 0
        assert stats.cache_hits == stats.candidate_pairs
        assert again.links == first.links
        scores_first = {(e.left, e.right): e.weight for e in first.edges}
        scores_again = {(e.left, e.right): e.weight for e in again.edges}
        assert scores_again == scores_first

    def test_same_entity_observed_on_both_sides(self):
        linker = StreamingLinker(origin=0.0)
        linker.observe("left", self._records("x", 10.0, 37.77, -122.42))
        linker.observe("left", self._records("other", 10.0, 37.90, -122.10))
        # The right side sees the *same* entity id with jittered records.
        linker.observe("right", self._records("x", 40.0, 37.7702, -122.4198))
        linker.observe("right", self._records("other", 40.0, 37.9002, -122.0998))
        result = linker.relink()
        assert result.links.get("x") == "x"
        assert result.links.get("other") == "other"
        # Sides stay independent corpora even under shared ids.
        assert linker._corpora["left"] is not linker._corpora["right"]

    def test_out_of_order_timestamps_within_window(self):
        """Records arriving out of timestamp order (even within one
        window) must bin identically to in-order arrival."""
        ordered = StreamingLinker(origin=0.0)
        shuffled = StreamingLinker(origin=0.0)
        left = self._records("a", 10.0, 37.77, -122.42) + self._records(
            "b", 15.0, 37.90, -122.10
        )
        right = self._records("a2", 40.0, 37.7701, -122.4199) + self._records(
            "b2", 45.0, 37.9001, -122.0999
        )
        reversed_left = list(reversed(left))
        reversed_right = list(reversed(right))
        ordered.observe("left", left)
        ordered.observe("right", right)
        shuffled.observe("left", reversed_left)
        shuffled.observe("right", reversed_right)
        result_ordered = ordered.relink()
        result_shuffled = shuffled.relink()
        assert result_shuffled.links == result_ordered.links
        scores_o = {(e.left, e.right): e.weight for e in result_ordered.edges}
        scores_s = {(e.left, e.right): e.weight for e in result_shuffled.edges}
        assert scores_s == scores_o

        # Late arrival of an *early* record (out of order across batches).
        ordered.observe("left", [Record("a", 37.7705, -122.42, 12.0)])
        late = ordered.relink()
        cold = StreamingLinker(origin=0.0)
        cold.observe("left", left + [Record("a", 37.7705, -122.42, 12.0)])
        cold.observe("right", right)
        assert late.links == cold.relink().links


class TestCorpusRefresh:
    def _histories(self, windowing, level=12):
        def build(eid, t, lat, lng):
            return MobilityHistory.from_columns(
                eid, np.array(t), np.array(lat), np.array(lng), windowing, level
            )

        return {
            "a": build("a", [10.0, 950.0], [37.77, 37.78], [-122.42, -122.41]),
            "b": build("b", [20.0], [37.77], [-122.42]),
            "c": build("c", [2000.0], [37.90], [-122.10]),
        }

    def _assert_corpus_equivalent(self, grown, fresh):
        assert grown.size == fresh.size
        assert grown.avg_bins == pytest.approx(fresh.avg_bins)
        for entity in fresh.entities:
            assert grown.bins_with_idf(entity) == fresh.bins_with_idf(entity)
            assert grown.relative_size(entity) == pytest.approx(
                fresh.relative_size(entity)
            )
            # The array view must gather to the same (window, cell, idf)
            # content even though the flat layout differs.
            gi, fi = grown.window_index(entity), fresh.window_index(entity)
            assert gi.windows.tolist() == fi.windows.tolist()
            ga, fa = grown.arrays(), fresh.arrays()
            gt, ft = grown.cell_table(), fresh.cell_table()
            for (go, gc), (fo, fc) in zip(
                zip(gi.offsets.tolist(), gi.counts.tolist()),
                zip(fi.offsets.tolist(), fi.counts.tolist()),
            ):
                assert gc == fc
                assert ga.cells[go : go + gc].tolist() == fa.cells[fo : fo + fc].tolist()
                np.testing.assert_allclose(
                    ga.idf[go : go + gc], fa.idf[fo : fo + fc], atol=1e-12
                )
                np.testing.assert_allclose(
                    gt.lat[ga.slots[go : go + gc]], ft.lat[fa.slots[fo : fo + fc]]
                )

    def test_refresh_matches_fresh_corpus(self):
        windowing = Windowing(0.0, 900.0)
        histories = self._histories(windowing)
        corpus = HistoryCorpus(histories, 12)
        corpus.arrays()  # materialise the array views before the delta

        histories["a"].extend(
            np.array([3000.0, 3100.0]),
            np.array([37.95, 37.96]),
            np.array([-122.05, -122.06]),
        )
        delta = corpus.refresh()
        assert delta.dirty_entities == ("a",)
        assert delta.idf_affected == ()  # only fresh bins: no df moved

        self._assert_corpus_equivalent(corpus, HistoryCorpus(histories, 12))

    def test_refresh_reports_idf_drift_on_shared_bins(self):
        windowing = Windowing(0.0, 900.0)
        histories = self._histories(windowing)
        corpus = HistoryCorpus(histories, 12)
        # "c" moves onto the bin "a" and "b" already share in window 0.
        histories["c"].extend(np.array([30.0]), np.array([37.77]), np.array([-122.42]))
        delta = corpus.refresh()
        assert delta.dirty_entities == ("c",)
        # df of the shared (window 0) bin moved: its clean holders.
        assert delta.idf_affected == ("a", "b")

    def test_refresh_with_new_entity_reports_global_drift(self):
        windowing = Windowing(0.0, 900.0)
        histories = self._histories(windowing)
        corpus = HistoryCorpus(histories, 12)
        histories["d"] = MobilityHistory.from_columns(
            "d", np.array([40.0]), np.array([37.80]), np.array([-122.40]),
            windowing, 12,
        )
        delta = corpus.refresh()
        assert "d" in delta.dirty_entities
        assert delta.idf_affected == ("a", "b", "c")  # |U_E| moved
        self._assert_corpus_equivalent(corpus, HistoryCorpus(histories, 12))

    def test_repeated_refresh_compacts_garbage(self):
        windowing = Windowing(0.0, 900.0)
        histories = self._histories(windowing)
        corpus = HistoryCorpus(histories, 12)
        corpus.arrays()
        for step in range(8):
            histories["a"].extend(
                np.array([4000.0 + 900.0 * step]),
                np.array([37.80 + 0.01 * step]),
                np.array([-122.40]),
            )
            corpus.refresh()
            # Live entries never fall below half the flat length.
            stats = corpus.memory_stats()
            assert stats["flat_live"] * 2 >= stats["flat_entries"]
        self._assert_corpus_equivalent(corpus, HistoryCorpus(histories, 12))

    def test_cell_table_extends_for_new_cells(self):
        windowing = Windowing(0.0, 900.0)
        histories = self._histories(windowing)
        corpus = HistoryCorpus(histories, 12)
        table_before = corpus.cell_table()
        known = len(table_before.cell_ids)
        histories["b"].extend(np.array([60.0]), np.array([40.71]), np.array([-74.00]))
        corpus.refresh()
        table_after = corpus.cell_table()
        assert len(table_after.cell_ids) > known
        # Old slots kept their geometry rows (append-only extension).
        np.testing.assert_array_equal(
            table_after.cell_ids[:known], table_before.cell_ids[:known]
        )
        # The superseded frozen snapshot was not mutated: its directory
        # still describes exactly the rows its own arrays have.
        assert len(table_before.slot_of) == known
        assert max(table_before.slot_of.values()) < known


class TestScoreCacheUnits:
    def test_spaces_are_disjoint(self):
        cache = ScoreCache()
        store(cache, "space1", "u", "v", 0, 0, 1.0)
        assert lookup(cache, "space2", "u", "v", 0, 0) is None
        assert lookup(cache, "space1", "u", "v", 0, 0).scores == 1.0

    def test_invalidate_by_side(self):
        cache = ScoreCache()
        store(cache, "s", "u1", "v1", 0, 0, 1.0)
        store(cache, "s", "u2", "v2", 0, 0, 2.0)
        assert cache.invalidate_pairs(*cache.entities.codes(set(), {"v2"})) == 1
        assert lookup(cache, "s", "u1", "v1", 0, 0) is not None
        assert lookup(cache, "s", "u2", "v2", 0, 0) is None

    def test_invalidation_scoped_to_space(self):
        """Shared caches: one owner's IDF drift must not clobber another
        space's entries for the same entity ids."""
        cache = ScoreCache()
        store(cache, "mine", "u", "v", 0, 0, 1.0)
        store(cache, "theirs", "u", "v", 0, 0, 2.0)
        assert cache.invalidate_pairs(*cache.entities.codes({"u"}, set()), space="mine") == 1
        assert lookup(cache, "mine", "u", "v", 0, 0) is None
        assert lookup(cache, "theirs", "u", "v", 0, 0).scores == 2.0


class TestLshIncremental:
    def test_remove_and_readd_matches_cold_rebuild(self, cab_pair):
        from repro.core.history import build_histories
        from fig1_oracle import build_signature
        from repro.lsh import LshIndex, SignatureSpec
        from lsh_calls import signatures_to_array
        from repro.temporal import common_windowing

        lsh = LshConfig(threshold=0.4, step_windows=8, spatial_level=14)
        windowing = common_windowing(
            (cab_pair.left.time_range(), cab_pair.right.time_range()), 900.0
        )
        left = build_histories(cab_pair.left, windowing, 14)
        right = build_histories(cab_pair.right, windowing, 14)
        latest = max(cab_pair.left.time_range()[1], cab_pair.right.time_range()[1])
        spec = SignatureSpec(0, windowing.index_of(latest) + 1, 8, 14)

        incremental = LshIndex(lsh, spec)
        incremental.add_histories(left, right)
        # add_histories codes by sorted-id position: code 0 is the first.
        target = sorted(left)[0]
        # Churn one entity: remove, then re-add the same signature.
        incremental.remove([0], "left")
        assert not len(incremental.pairs_of([0], []))
        incremental.add_signatures(
            [0], signatures_to_array([build_signature(left[target], spec)]), "left"
        )

        cold = LshIndex(lsh, spec)
        cold.add_histories(left, right)
        assert np.array_equal(incremental.candidate_pairs(), cold.candidate_pairs())
        assert incremental.stats.hashed_bands_left == cold.stats.hashed_bands_left

    def test_remove_unknown_entity_is_noop(self):
        from repro.lsh import LshIndex, SignatureSpec

        index = LshIndex(LshConfig(), SignatureSpec(0, 64, 16, 16))
        index.remove([7], "left")
        assert index.num_entities == 0 and index.stats.buckets_used == 0


class TestTuningCacheReuse:
    def test_repeated_sweeps_hit_the_cache(self, tiny_dataset):
        from repro.core.history import build_histories
        from repro.core.tuning import auto_spatial_level
        from repro.temporal import common_windowing

        levels = (8, 10, 12)
        windowing = common_windowing((tiny_dataset.time_range(),), 900.0)
        histories = build_histories(tiny_dataset, windowing, max(levels))
        cache = ScoreCache()
        first = auto_spatial_level(
            tiny_dataset, levels=levels, rng=3, windowing=windowing,
            score_cache=cache, histories=histories,
        )
        misses_after_first = cache.misses
        assert misses_after_first > 0 and cache.hits == 0
        second = auto_spatial_level(
            tiny_dataset, levels=levels, rng=3, windowing=windowing,
            score_cache=cache, histories=histories,
        )
        assert second.level == first.level
        assert cache.misses == misses_after_first  # all pairs served cached
        assert cache.hits > 0

    def test_cache_without_caller_histories_stays_untouched(self, tiny_dataset):
        """Internally built histories die with the call — depositing
        entries under their identity would be pure pollution (and id()
        aliasing risk), so the cache must be bypassed entirely."""
        from repro.core.tuning import auto_spatial_level

        cache = ScoreCache()
        auto_spatial_level(tiny_dataset, levels=(8, 10), rng=3, score_cache=cache)
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_pair_tuning_reuses_cache_with_histories(self, tiny_dataset):
        from repro.core.history import build_histories
        from repro.core.tuning import auto_spatial_level_for_pair
        from repro.temporal import common_windowing

        levels = (8, 10, 12)
        windowing = common_windowing((tiny_dataset.time_range(),), 900.0)
        histories = build_histories(tiny_dataset, windowing, max(levels))
        cache = ScoreCache()
        first = auto_spatial_level_for_pair(
            tiny_dataset, tiny_dataset, levels=levels, rng=5,
            score_cache=cache,
            left_histories=histories, right_histories=histories,
        )
        misses = cache.misses
        assert misses > 0
        second = auto_spatial_level_for_pair(
            tiny_dataset, tiny_dataset, levels=levels, rng=5,
            score_cache=cache,
            left_histories=histories, right_histories=histories,
        )
        assert second == first
        assert cache.misses == misses and cache.hits > 0
