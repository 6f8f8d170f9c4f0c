"""ScoreCache persistence: save/load round-trip and cross-process
warm-starts through the pipeline's content-keyed corpora.

The persisted form is a snapshot root holding ``ScoreCache.checkpoint()``;
every way it can be untrustworthy (truncated, foreign, digest flip,
version skew) and the all-or-nothing save are pinned, for this root and
the whole-linker one alike, by ``tests/store/test_snapshot_failures.py``.
"""

import numpy as np

from cache_calls import capture_rows, lookup, store
from repro.core.corpus import content_fingerprint
from repro.core.history import MobilityHistory
from repro.core.score_cache import ScoreCache
from repro.pipeline import LinkageConfig, LinkagePipeline
from repro.store.snapshot import SNAPSHOT_FORMAT, write_snapshot
from repro.temporal import Windowing


def _populated_cache():
    cache = ScoreCache()
    store(cache, "space-a", "u", "v", 1, 2, raw=1.5,
          bin_comparisons=4, common_windows=2, alibi_bin_pairs=1)
    store(cache, "space-a", "w", "x", 0, 0, raw=-0.25,
          bin_comparisons=9, common_windows=3, alibi_bin_pairs=0)
    store(cache, ("content", "abc"), "u", "x", 3, 1, raw=0.75,
          bin_comparisons=1, common_windows=1, alibi_bin_pairs=0)
    return cache


class TestRoundTrip:
    def test_entries_survive(self, tmp_path):
        cache = _populated_cache()
        path = cache.save(tmp_path / "scores")
        loaded = ScoreCache.load(path)
        assert len(loaded) == len(cache)
        entry = lookup(loaded, "space-a", "u", "v", 1, 2)
        assert entry.scores == 1.5
        assert entry.bin_comparisons == 4
        assert entry.common_windows == 2
        assert entry.alibi_bin_pairs == 1
        assert lookup(loaded, ("content", "abc"), "u", "x", 3, 1).scores == 0.75

    def test_version_keys_still_enforced(self, tmp_path):
        path = _populated_cache().save(tmp_path / "scores")
        loaded = ScoreCache.load(path)
        assert lookup(loaded, "space-a", "u", "v", 9, 2) is None

    def test_counters_survive(self, tmp_path):
        cache = _populated_cache()
        lookup(cache, "space-a", "u", "v", 1, 2)  # hit
        lookup(cache, "space-a", "n", "o", 0, 0)  # miss
        loaded = ScoreCache.load(cache.save(tmp_path / "scores"))
        assert (loaded.hits, loaded.misses) == (1, 1)

    def test_batch_lookup_after_load(self, tmp_path):
        loaded = ScoreCache.load(
            _populated_cache().save(tmp_path / "scores")
        )
        hit, batch = loaded.lookup_batch(
            "space-a",
            loaded.entities.pair_codes([("u", "v"), ("w", "x"), ("n", "o")]),
            np.array([1, 0, 0]),
            np.array([2, 0, 0]),
        )
        assert hit.tolist() == [True, True, False]
        assert batch.scores[:2].tolist() == [1.5, -0.25]

    def test_a_hand_written_format_8_file_loads_and_serves_its_hits(
        self, tmp_path
    ):
        """The cache file's payload is the packed layout, written here
        key by key as format 8 defines it: spaces, the ids the rows
        reference, ``(3, rows)`` owner indices into those three, one
        array per value column, and the counters."""
        assert SNAPSHOT_FORMAT == 8
        layout = {
            "spaces": [("content", "abc"), "space-a"],
            "left_ids": np.array(["u", "w"], dtype=object),
            "right_ids": np.array(["v", "x"], dtype=object),
            "owners": np.array([[1, 1, 0], [1, 0, 0], [1, 0, 1]]),
            "u_version": np.array([0, 3, 1]),
            "v_version": np.array([0, 2, 1]),
            "raw": np.array([-0.25, 1.5, 0.75]),
            "bin_comparisons": np.array([9, 4, 1]),
            "common_windows": np.array([3, 2, 1]),
            "alibi_bin_pairs": np.array([0, 1, 0]),
            "hits": 5,
            "misses": 6,
        }
        root = tmp_path / "scores"
        write_snapshot(root, {"score_cache": layout})
        loaded = ScoreCache.load(root)
        assert (len(loaded), loaded.hits, loaded.misses) == (3, 5, 6)
        assert lookup(loaded, "space-a", "w", "x", 0, 0).scores == -0.25
        assert tuple(lookup(loaded, "space-a", "u", "v", 3, 2)) == (1.5, 4, 2, 1)
        assert lookup(loaded, ("content", "abc"), "u", "x", 1, 1).scores == 0.75
        assert loaded.hits == 8
        assert capture_rows(loaded.checkpoint()) == capture_rows(layout)


class TestContentFingerprint:
    def _histories(self, shift=0.0):
        windowing = Windowing(0.0, 900.0)
        return {
            "a": MobilityHistory.from_columns(
                "a", np.array([10.0, 1000.0]),
                np.array([37.77, 37.78 + shift]),
                np.array([-122.42, -122.41]), windowing, 12,
            ),
            "b": MobilityHistory.from_columns(
                "b", np.array([20.0]), np.array([37.80]),
                np.array([-122.40]), windowing, 12,
            ),
        }

    def test_same_content_same_fingerprint(self):
        assert content_fingerprint(self._histories(), 12) == (
            content_fingerprint(self._histories(), 12)
        )

    def test_different_content_or_level_differs(self):
        base = content_fingerprint(self._histories(), 12)
        assert content_fingerprint(self._histories(shift=0.3), 12) != base
        assert content_fingerprint(self._histories(), 10) != base


class TestPipelineWarmStart:
    def test_second_run_served_from_loaded_cache(self, cab_pair, tmp_path):
        """Simulates two CLI invocations: run, save, load, run again —
        the second run's scoring is all cache hits, links identical."""
        path = tmp_path / "scores"
        pipeline = LinkagePipeline(LinkageConfig())

        cold_cache = ScoreCache()
        cold = pipeline.run(
            cab_pair.left, cab_pair.right, score_cache=cold_cache
        )
        assert cold_cache.misses > 0
        cold_cache.save(path)

        warm_cache = ScoreCache.load(path)
        misses_before = warm_cache.misses
        warm = pipeline.run(
            cab_pair.left, cab_pair.right, score_cache=warm_cache
        )
        assert warm_cache.misses == misses_before  # nothing re-scored
        assert warm_cache.hits >= cold.candidate_pairs
        assert warm.links == cold.links
        assert warm.edges == cold.edges


class TestArithmeticRevision:
    """Totals cached by an older kernel must miss, not mix: the kernel's
    ``ARITHMETIC_REVISION`` is one term of the scoring space."""

    def test_cache_filled_under_an_older_revision_is_a_clean_miss(
        self, cab_pair, tmp_path, monkeypatch
    ):
        from repro.core import similarity

        pipeline = LinkagePipeline(LinkageConfig())
        cold = pipeline.run(cab_pair.left, cab_pair.right)

        with monkeypatch.context() as older:
            older.setattr(
                similarity,
                "ARITHMETIC_REVISION",
                similarity.ARITHMETIC_REVISION - 1,
            )
            old_cache = ScoreCache()
            pipeline.run(cab_pair.left, cab_pair.right, score_cache=old_cache)
            assert len(old_cache) == cold.candidate_pairs
            old_cache.save(tmp_path / "scores")

        cache = ScoreCache.load(tmp_path / "scores")
        hits = cache.hits
        report = pipeline.run(cab_pair.left, cab_pair.right, score_cache=cache)
        assert cache.hits == hits  # not one old total served
        assert cache.misses - old_cache.misses == cold.candidate_pairs
        assert report.links == cold.links
        assert report.edges == cold.edges

    def test_snapshot_written_before_the_revision_term_relinks_like_cold(
        self, tmp_path, monkeypatch
    ):
        """A parent-shaped format-3 snapshot (scoring spaces one term
        shorter) still restores; its cached totals are never hit, so the
        restored linker's relink equals a cold linker's."""
        from repro.core import similarity, streaming
        from repro.core.streaming import StreamingLinker
        from repro.data import Record
        from repro.store import SNAPSHOT_FORMAT

        assert SNAPSHOT_FORMAT == 8

        def observe(linker, rounds, entities=range(12)):
            for round_index in rounds:
                for side, jitter in (("left", 0.0), ("right", 1.1e-4)):
                    linker.observe(side, [
                        Record(
                            f"e{i}",
                            37.6 + (i % 4) * 0.01 + jitter,
                            -122.4 + (i // 4) * 0.01 + jitter,
                            round_index * 3600.0 + (i * 7) % 3500 + 10.0,
                        )
                        for i in entities
                    ])

        space = similarity.score_cache_space
        with monkeypatch.context() as parent:
            for module in (similarity, streaming):
                parent.setattr(
                    module, "score_cache_space", lambda *args: space(*args)[:-1]
                )
            linker = StreamingLinker(0.0)
            observe(linker, range(3))
            linker.relink()
            assert len(linker._score_cache) > 0
            linker.save(tmp_path / "snaps")

        restored = StreamingLinker.restore(tmp_path / "snaps", strict=True)
        assert len(restored._score_cache) == len(linker._score_cache)
        hits = restored._score_cache.hits
        # Three entities move on; every other pair's history versions are
        # the snapshot's, and would hit if the spaces still matched.
        observe(restored, [3], entities=range(3))
        resumed = restored.relink()
        assert restored._score_cache.hits == hits

        cold = StreamingLinker(0.0)
        observe(cold, range(3))
        observe(cold, [3], entities=range(3))
        expected = cold.relink()
        assert dict(resumed.links) == dict(expected.links)
        assert resumed.link_scores == expected.link_scores
