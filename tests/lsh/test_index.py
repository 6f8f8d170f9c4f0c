"""Unit tests for the LSH bucket index."""

import numpy as np
import pytest
from fig1_oracle import build_signature
from lsh_calls import Named, history_pairs, placements

from repro.core.history import build_histories
from repro.lsh.index import LshConfig, LshIndex
from repro.lsh.signature import (
    SignatureSpec,
    signature_matrix,
    signature_similarity,
)
from repro.temporal import common_windowing


def _spec(config, total_windows=64):
    return SignatureSpec(0, total_windows, config.step_windows, config.spatial_level)


class TestLshConfig:
    def test_defaults(self):
        config = LshConfig()
        assert config.threshold == 0.6
        assert config.num_buckets == 4096

    def test_validation(self):
        with pytest.raises(ValueError):
            LshConfig(threshold=0.0)
        with pytest.raises(ValueError):
            LshConfig(threshold=1.0)
        with pytest.raises(ValueError):
            LshConfig(step_windows=0)
        with pytest.raises(ValueError):
            LshConfig(num_buckets=0)
        with pytest.raises(ValueError):
            LshConfig(spatial_level=31)


class TestIndexBasics:
    def test_level_mismatch_raises(self):
        config = LshConfig(spatial_level=16)
        spec = SignatureSpec(0, 64, config.step_windows, 14)
        with pytest.raises(ValueError):
            LshIndex(config, spec)

    def test_identical_signatures_always_collide(self):
        config = LshConfig(threshold=0.6, step_windows=4, spatial_level=14)
        spec = _spec(config)
        index = Named(LshIndex(config, spec))
        signature = tuple(
            100 + slot if slot % 2 == 0 else None for slot in range(spec.length)
        )
        index.add("l1", signature, "left")
        index.add("r1", signature, "right")
        assert ("l1", "r1") in index.candidate_pairs()

    def test_disjoint_signatures_never_collide(self):
        config = LshConfig(threshold=0.6, step_windows=4, spatial_level=14, num_buckets=1 << 20)
        spec = _spec(config)
        index = Named(LshIndex(config, spec))
        index.add("l1", tuple(range(100, 100 + spec.length)), "left")
        index.add("r1", tuple(range(500, 500 + spec.length)), "right")
        assert index.candidate_pairs() == set()

    def test_invalid_side_raises(self):
        config = LshConfig(step_windows=4, spatial_level=14)
        index = LshIndex(config, _spec(config))
        with pytest.raises(ValueError):
            index.add_signatures(
                [0], np.ones((1, index.spec.length), dtype=np.uint64), "middle"
            )

    def test_all_placeholder_signature_hashes_nothing(self):
        config = LshConfig(step_windows=4, spatial_level=14)
        index = Named(LshIndex(config, _spec(config)))
        index.add("ghost", (None,) * index.index.spec.length, "left")
        assert index.index.stats.hashed_bands_left == 0
        assert index.candidate_pairs() == set()

    def test_same_side_pairs_not_candidates(self):
        config = LshConfig(step_windows=4, spatial_level=14)
        index = Named(LshIndex(config, _spec(config)))
        signature = tuple(range(200, 200 + index.index.spec.length))
        index.add("l1", signature, "left")
        index.add("l2", signature, "left")
        assert index.candidate_pairs() == set()

    def test_fewer_buckets_more_candidates(self):
        """Bucket collisions (Fig. 9): shrinking the table can only add
        accidental candidates."""
        rng = np.random.default_rng(3)
        config_small = LshConfig(threshold=0.6, step_windows=4, spatial_level=14, num_buckets=8)
        config_large = LshConfig(threshold=0.6, step_windows=4, spatial_level=14, num_buckets=1 << 20)
        small = Named(LshIndex(config_small, _spec(config_small)))
        large = Named(LshIndex(config_large, _spec(config_large)))
        for index in (small, large):
            length = index.index.spec.length
            for k in range(40):
                signature = tuple(int(rng.integers(0, 50)) for _ in range(length))
                index.add(f"l{k}", signature, "left")
                signature = tuple(int(rng.integers(0, 50)) for _ in range(length))
                index.add(f"r{k}", signature, "right")
        assert len(small.candidate_pairs()) >= len(large.candidate_pairs())

    def test_stats_populated(self):
        config = LshConfig(step_windows=4, spatial_level=14)
        named = Named(LshIndex(config, _spec(config)))
        index = named.index
        signature = tuple(range(300, 300 + index.spec.length))
        named.add("l1", signature, "left")
        named.add("r1", signature, "right")
        index.candidate_pairs()
        assert index.stats.signature_length == index.spec.length
        assert index.stats.num_bands >= 1
        assert index.stats.buckets_used >= 1
        assert index.stats.candidate_pairs == 1


class TestIndexOnHistories:
    def test_true_pairs_mostly_survive(self, cab_pair):
        """With a permissive threshold, LSH keeps the ground-truth pairs."""
        config = LshConfig(threshold=0.4, step_windows=8, spatial_level=14)
        windowing = common_windowing(
            (cab_pair.left.time_range(), cab_pair.right.time_range()), 900.0
        )
        latest = max(cab_pair.left.time_range()[1], cab_pair.right.time_range()[1])
        total = windowing.index_of(latest) + 1
        left = build_histories(cab_pair.left, windowing, 14)
        right = build_histories(cab_pair.right, windowing, 14)
        spec = SignatureSpec(0, total, config.step_windows, config.spatial_level)
        index = LshIndex(config, spec)
        index.add_histories(left, right)
        candidates = history_pairs(index, left, right)
        kept = sum(
            1 for pair in cab_pair.ground_truth.items() if pair in candidates
        )
        assert kept >= 0.6 * len(cab_pair.ground_truth)

    def test_candidate_signature_similarity_tends_high(self, cab_pair):
        """Candidates should have higher signature similarity on average
        than non-candidates (the LSH S-curve at work)."""
        config = LshConfig(threshold=0.5, step_windows=8, spatial_level=14)
        windowing = common_windowing(
            (cab_pair.left.time_range(), cab_pair.right.time_range()), 900.0
        )
        latest = max(cab_pair.left.time_range()[1], cab_pair.right.time_range()[1])
        total = windowing.index_of(latest) + 1
        left = build_histories(cab_pair.left, windowing, 14)
        right = build_histories(cab_pair.right, windowing, 14)
        spec = SignatureSpec(0, total, config.step_windows, config.spatial_level)
        signatures_left = {e: build_signature(h, spec) for e, h in left.items()}
        signatures_right = {e: build_signature(h, spec) for e, h in right.items()}
        index = Named(LshIndex(config, spec))
        for entity, signature in signatures_left.items():
            index.add(entity, signature, "left")
        for entity, signature in signatures_right.items():
            index.add(entity, signature, "right")
        candidates = index.candidate_pairs()
        if not candidates:
            pytest.skip("no candidates at this parameterisation")
        candidate_sims = [
            signature_similarity(signatures_left[l], signatures_right[r])
            for l, r in candidates
        ]
        all_sims = [
            signature_similarity(sl, sr)
            for sl in signatures_left.values()
            for sr in signatures_right.values()
        ]
        assert np.mean(candidate_sims) > np.mean(all_sims)


class TestVectorizedHashing:
    """The batched band-hashing pass must be indistinguishable from
    incremental single-signature inserts."""

    def _worlds(self, cab_pair, level=14):
        windowing = common_windowing(
            (cab_pair.left.time_range(), cab_pair.right.time_range()), 900.0
        )
        latest = max(cab_pair.left.time_range()[1], cab_pair.right.time_range()[1])
        total = windowing.index_of(latest) + 1
        left = build_histories(cab_pair.left, windowing, level)
        right = build_histories(cab_pair.right, windowing, level)
        config = LshConfig(threshold=0.5, step_windows=8, spatial_level=level)
        spec = SignatureSpec(0, total, config.step_windows, level)
        return config, spec, left, right

    def test_batch_equals_incremental(self, cab_pair):
        config, spec, left, right = self._worlds(cab_pair)
        batched = LshIndex(config, spec)
        batched.add_histories(left, right)
        # add_histories codes each side by sorted-id position.
        by_position = Named(batched)
        by_position.entities.codes(sorted(left), sorted(right))
        incremental = Named(LshIndex(config, spec))
        for entity, history in left.items():
            incremental.add(entity, build_signature(history, spec), "left")
        for entity, history in right.items():
            incremental.add(entity, build_signature(history, spec), "right")
        assert history_pairs(batched, left, right) == incremental.candidate_pairs()
        # The streaming dirty path: every entity first placed under some
        # other signature, then all of them re-placed from one matrix.
        replaced = Named(LshIndex(config, spec))
        for histories, side in ((left, "left"), (right, "right")):
            for entity in histories:
                replaced.add(entity, (7,) * spec.length, side)
            replaced.index.add_signatures(
                replaced._codes(list(histories), side),
                signature_matrix(histories, spec),
                side,
            )
        replaced.candidate_pairs()
        for named in (incremental, replaced):
            assert named.placements() == by_position.placements()
            assert named.index.stats == batched.stats

    def test_bucket_ids_cover_small_tables(self, cab_pair):
        """Power-of-two bucket tables must see high-bit entropy (cell ids
        at coarse levels have constant low bits); a healthy hash spreads
        distinct signatures over many buckets."""
        from repro.lsh.banding import band_bucket_ids
        from lsh_calls import signatures_to_array

        _, spec, left, _ = self._worlds(cab_pair)
        packed = signatures_to_array(
            build_signature(history, spec) for history in left.values()
        )
        rows = band_bucket_ids(packed, 4, 4096)
        hashed = rows[rows >= 0]
        assert len(np.unique(hashed)) > len(left) // 2
