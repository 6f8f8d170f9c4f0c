"""A delta relink costs O(delta) — asserted with work counters, not clocks.

The resident corpus grows 4x (spatially disjoint copies of one world, so
the dirty entities keep exactly the neighbours they had) while the delta
stays at four entities: the candidate set must grow with the corpus, and
the work a relink does *per round* — pairs it asks the score cache about,
entity codes the LSH delta probes, cache rows it writes — must not.
"""

from unittest import mock

import pytest

from repro.core import score_cache, streaming
from repro.core.score_cache import ScoreCache
from repro.core.streaming import StreamingLinker
from repro.data import Record, sample_linkage_pair
from repro.data.synth import default_sm_world
from repro.lsh.index import LshConfig, LshIndex
from repro.pipeline import LinkageConfig

SIDES = ("left", "right")
CONFIG = LinkageConfig(
    # A bucket table large enough that the copies do not collide in it.
    lsh=LshConfig(
        threshold=0.3, step_windows=48, spatial_level=14, num_buckets=1 << 18
    ),
    threshold="none",
)


@pytest.fixture(scope="module")
def base_pair():
    world = default_sm_world(num_users=150, duration_days=4.0, seed=5).generate()
    return sample_linkage_pair(
        world, intersection_ratio=0.5, inclusion_probability=0.5, rng=5
    )


def _resident_linker(pair, copies):
    """A warm linker over ``copies`` shifted copies of the pair, with the
    late records of four copy-0 entities (two per side) held back."""
    low = min(pair.left.time_range()[0], pair.right.time_range()[0])
    high = max(pair.left.time_range()[1], pair.right.time_range()[1])
    cut = low + 0.75 * (high - low)
    held_back = {side: [] for side in SIDES}
    linker = StreamingLinker(low, CONFIG)
    for side, dataset in zip(SIDES, (pair.left, pair.right)):
        records = list(dataset.records())
        late = sorted({r.entity_id for r in records if r.timestamp > cut})[:2]
        resident = []
        for record in records:
            if record.entity_id in late and record.timestamp > cut:
                held_back[side].append(
                    Record(f"{record.entity_id}#0", record.lat, record.lng, record.timestamp)
                )
                continue
            resident.extend(
                Record(
                    f"{record.entity_id}#{copy}",
                    record.lat,
                    record.lng + 7.0 * copy,
                    record.timestamp,
                )
                for copy in range(copies)
            )
        linker.observe(side, resident)
    linker.relink()
    return linker, held_back


class _Work:
    """Work counters of one relink, read where the work happens."""

    asked = 0  # pairs handed to raw_batch -> lookup_batch
    probed = 0  # entity codes the LSH delta handed to pairs_of
    written = 0  # cache rows written: pairs stored plus rows dropped


def _delta_round(linker, held_back):
    """Observe the held-back records, relink, return the work done."""
    work = _Work()
    lookup, pairs_of = ScoreCache.lookup_batch, LshIndex.pairs_of
    store, drop = ScoreCache.store_batch, ScoreCache._drop

    def counted_lookup(cache, space, pairs, *args):
        work.asked += len(pairs)
        return lookup(cache, space, pairs, *args)

    def counted_pairs_of(index, left_codes, right_codes):
        work.probed += len(left_codes) + len(right_codes)
        return pairs_of(index, left_codes, right_codes)

    def counted_store(cache, space, pairs, *args):
        work.written += len(pairs)
        return store(cache, space, pairs, *args)

    def counted_drop(cache, space, record, gone):
        work.written += int(gone.sum())
        return drop(cache, space, record, gone)

    for side in SIDES:
        linker.observe(side, held_back[side])
    with mock.patch.object(ScoreCache, "lookup_batch", counted_lookup), \
            mock.patch.object(LshIndex, "pairs_of", counted_pairs_of), \
            mock.patch.object(ScoreCache, "store_batch", counted_store), \
            mock.patch.object(ScoreCache, "_drop", counted_drop):
        linker.relink()
    return work


def test_relink_work_follows_the_delta_not_the_corpus(base_pair):
    rungs = {}
    for copies in (1, 2, 4):
        linker, held_back = _resident_linker(base_pair, copies)
        work = _delta_round(linker, held_back)
        stats = linker.last_relink
        assert not stats.lsh_rebuilt
        assert stats.dirty_left + stats.dirty_right == 4
        assert stats.cache_hits + stats.pairs_rescored == stats.candidate_pairs
        assert work.asked < stats.candidate_pairs
        rungs[copies] = (stats.candidate_pairs, work)

    small, large = rungs[1], rungs[4]
    assert large[0] >= 3 * small[0]  # the candidate set grew with the corpus
    for counter in ("asked", "probed", "written"):
        before, after = getattr(small[1], counter), getattr(large[1], counter)
        assert before > 0
        # ... and the work did not: the dirty entities' partners are the
        # same few (plus the odd bucket-table collision with a copy).
        assert after <= 1.25 * before + 8, (counter, before, after)


def test_delta_round_takes_no_full_capture_and_enumerates_nothing(
    base_pair, monkeypatch
):
    linker, held_back = _resident_linker(base_pair, 1)

    def never(*args, **kwargs):
        raise AssertionError("an O(corpus) pass ran on a delta round")

    # The checkpoints are not on the list: they hold every layer by
    # reference, O(1) per layer, and the transaction takes them.  What
    # must not run is the packing a durable snapshot does.
    for owner, name in (
        (score_cache, "_pack_cache"),
        (streaming, "_pack_cache"),
        (streaming, "_pack_corpus"),
        (streaming, "_pack_histories"),
        (streaming, "_pack_index"),
        (LshIndex, "candidate_pairs"),
    ):
        monkeypatch.setattr(owner, name, never)
    for side in SIDES:
        linker.observe(side, held_back[side])
    report = linker.relink()
    assert report.links and not linker.last_relink.lsh_rebuilt
    assert linker.relink().links == report.links  # zero delta: the same holds
    assert linker.last_relink.pairs_rescored == 0


def test_brute_candidates_feed_the_table_by_set_difference(base_pair):
    """Non-LSH generators hand over their full set every round; the table
    still only re-asks about what the delta touched."""
    low = min(base_pair.left.time_range()[0], base_pair.right.time_range()[0])
    linker = StreamingLinker(low, LinkageConfig(threshold="none"))
    kept = {}
    for side, dataset in zip(SIDES, (base_pair.left, base_pair.right)):
        records = list(dataset.records())
        kept[side] = sorted({r.entity_id for r in records})[:30]
        linker.observe(side, [r for r in records if r.entity_id in kept[side]])
    linker.relink()
    assert linker.last_relink.candidate_pairs == 30 * 30

    asked = []
    lookup = ScoreCache.lookup_batch

    def counted(cache, space, pairs, *args):
        asked.append(len(pairs))
        return lookup(cache, space, pairs, *args)

    # One entity grows into a bin nobody else holds: no shared document
    # frequency moves, so exactly its own 30 pairs are touched.
    linker.observe("left", [Record(kept["left"][0], 10.0, 10.0, low + 50.0)])
    with mock.patch.object(ScoreCache, "lookup_batch", counted):
        linker.relink()
    stats = linker.last_relink
    assert sum(asked) == stats.pairs_rescored == 30
    assert stats.cache_hits == 30 * 30 - 30

    # A newcomer: 30 new pairs — and, the corpus size having changed,
    # every idf on its side moved, so the whole set is asked again.
    linker.observe("left", [Record("newcomer", 37.7, -122.4, low + 50.0)])
    del asked[:]
    with mock.patch.object(ScoreCache, "lookup_batch", counted):
        linker.relink()
    stats = linker.last_relink
    assert stats.candidate_pairs == 31 * 30 == sum(asked) == stats.pairs_rescored
