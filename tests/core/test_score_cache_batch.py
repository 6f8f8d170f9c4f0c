"""Vectorized ScoreCache batch API: many pairs answer as each would alone."""

import numpy as np

from cache_calls import lookup
from repro.core.score_cache import ScoreCache


def _codes(cache, pairs):
    return cache.entities.pair_codes(pairs)


def _store_batch(cache, space, pairs, u, v, raws):
    cache.store_batch(
        space,
        _codes(cache, pairs),
        np.asarray(u, dtype=np.int64),
        np.asarray(v, dtype=np.int64),
        raw=np.asarray(raws, dtype=np.float64),
        bin_comparisons=np.arange(len(pairs), dtype=np.int64) + 1,
        common_windows=np.ones(len(pairs), dtype=np.int64),
        alibi_bin_pairs=np.zeros(len(pairs), dtype=np.int64),
    )


class TestLookupBatch:
    def test_empty_cache_all_miss(self):
        cache = ScoreCache()
        hit, batch = cache.lookup_batch(
            "s", _codes(cache, [("a", "b"), ("c", "d")]), np.zeros(2, np.int64),
            np.zeros(2, np.int64),
        )
        assert hit.tolist() == [False, False]
        assert cache.misses == 2 and cache.hits == 0

    def test_hits_match_per_pair_lookup(self):
        cache = ScoreCache()
        pairs = [("a", "x"), ("b", "y"), ("c", "z")]
        _store_batch(cache, "s", pairs, [0, 1, 2], [5, 6, 7], [1.0, 2.0, 3.0])
        hit, batch = cache.lookup_batch(
            "s", _codes(cache, pairs), np.array([0, 1, 2]), np.array([5, 6, 7])
        )
        assert hit.all()
        assert batch.scores.tolist() == [1.0, 2.0, 3.0]
        assert batch.bin_comparisons.tolist() == [1, 2, 3]
        for pair, u, v, raw in zip(pairs, (0, 1, 2), (5, 6, 7), (1.0, 2.0, 3.0)):
            assert lookup(cache, "s", pair[0], pair[1], u, v).scores == raw

    def test_version_mismatch_is_miss_and_evicts(self):
        cache = ScoreCache()
        _store_batch(cache, "s", [("a", "x")], [0], [0], [1.0])
        hit, batch = cache.lookup_batch(
            "s", _codes(cache, [("a", "x")]), np.array([1]), np.array([0])
        )
        assert not hit[0]
        assert len(cache) == 0  # stale entry evicted

    def test_mixed_hit_miss_counters(self):
        cache = ScoreCache()
        _store_batch(cache, "s", [("a", "x"), ("b", "y")], [0, 0], [0, 0], [1.0, 2.0])
        hit, batch = cache.lookup_batch(
            "s",
            _codes(cache, [("a", "x"), ("b", "y"), ("c", "z")]),
            np.array([0, 9, 0]),
            np.array([0, 0, 0]),
        )
        assert hit.tolist() == [True, False, False]
        assert cache.hits == 1 and cache.misses == 2

    def test_duplicate_stale_pair_in_batch(self):
        """A pair duplicated within one batch whose entry is stale must
        count two misses (as two one-pair lookups would), not crash on the
        second eviction."""
        cache = ScoreCache()
        _store_batch(cache, "s", [("u", "v")], [1], [1], [1.0])
        hit, batch = cache.lookup_batch(
            "s",
            _codes(cache, [("u", "v"), ("u", "v")]),
            np.array([2, 2]),
            np.array([2, 2]),
        )
        assert hit.tolist() == [False, False]
        assert cache.misses == 2
        assert len(cache) == 0

    def test_space_scoping(self):
        cache = ScoreCache()
        _store_batch(cache, "mine", [("a", "x")], [0], [0], [1.0])
        hit, batch = cache.lookup_batch(
            "theirs", _codes(cache, [("a", "x")]), np.array([0]), np.array([0])
        )
        assert not hit[0]

    def test_store_batch_overwrites_existing_rows(self):
        cache = ScoreCache()
        _store_batch(cache, "s", [("a", "x")], [0], [0], [1.0])
        _store_batch(cache, "s", [("a", "x")], [1], [0], [7.0])
        assert len(cache) == 1
        assert lookup(cache, "s", "a", "x", 1, 0).scores == 7.0


class TestInvalidation:
    def test_clear_resets_rows(self):
        cache = ScoreCache()
        _store_batch(cache, "s", [("a", "x")], [0], [0], [1.0])
        cache.clear()
        assert len(cache) == 0
        hit, batch = cache.lookup_batch(
            "s", _codes(cache, [("a", "x")]), np.array([0]), np.array([0])
        )
        assert not hit[0]
