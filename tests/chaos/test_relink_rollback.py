"""Transactional relink: an exception mid-relink must leave the
streaming linker answering from its previous consistent snapshot —
bit-identical to never having attempted the relink at all."""

import pytest

from cache_calls import capture_rows
from lsh_calls import pair_ids, state
from repro.core.score_cache import ScoreCache, split_codes
from repro.core.streaming import StreamingLinker
from repro.lsh import LshConfig
from repro.lsh.index import LshIndex
from repro.pipeline import LinkageConfig
from repro.pipeline.stages import MatchingStage


class _Boom(RuntimeError):
    """The injected mid-relink failure."""


def _boom(*args, **kwargs):
    raise _Boom("injected mid-relink failure")


def _origin(pair):
    return min(pair.left.time_range()[0], pair.right.time_range()[0])


def _midpoint(pair, fraction=0.5):
    origin = _origin(pair)
    end = max(pair.left.time_range()[1], pair.right.time_range()[1])
    return origin + fraction * (end - origin)


def _feed(linker, pair, lo=None, hi=None):
    for side, dataset in (("left", pair.left), ("right", pair.right)):
        linker.observe(
            side,
            (
                r
                for r in dataset.records()
                if (lo is None or r.timestamp > lo)
                and (hi is None or r.timestamp <= hi)
            ),
        )


def _cache_fingerprint(cache):
    return (len(cache), cache.hits, cache.misses)


class TestRelinkRollback:
    def test_failed_relink_restores_state_bit_identical(
        self, cab_pair, monkeypatch
    ):
        """Warm linker, new data, relink blows up in the matching stage
        (after scoring already populated caches): every observable layer
        must read exactly as before the attempt, and a retry must equal a
        control linker that never saw the failure."""
        mid = _midpoint(cab_pair)
        linker = StreamingLinker(origin=_origin(cab_pair), config=LinkageConfig())
        control = StreamingLinker(origin=_origin(cab_pair), config=LinkageConfig())
        for target in (linker, control):
            _feed(target, cab_pair, hi=mid)
            target.relink()
            _feed(target, cab_pair, lo=mid)

        before_memory = linker.memory_stats()
        before_cache = _cache_fingerprint(linker.score_cache)
        before_last = linker.last_relink

        monkeypatch.setattr(MatchingStage, "run", _boom)
        with pytest.raises(_Boom):
            linker.relink()
        monkeypatch.undo()

        assert linker.memory_stats() == before_memory
        assert _cache_fingerprint(linker.score_cache) == before_cache
        assert linker.last_relink is before_last

        retry = linker.relink()
        expected = control.relink()
        assert retry.links == expected.links
        assert retry.matched_edges == expected.matched_edges
        assert retry.edges == expected.edges
        assert retry.stats == expected.stats
        assert retry.candidate_pairs == expected.candidate_pairs
        assert linker.last_relink == control.last_relink
        assert linker.memory_stats() == control.memory_stats()
        assert _cache_fingerprint(linker.score_cache) == _cache_fingerprint(
            control.score_cache
        )

    def test_first_relink_failure_rolls_back_to_cold_state(
        self, cab_pair, monkeypatch
    ):
        """Failing the *first* relink must rewind the corpora to their
        never-built state (None), not leave half-built statistics."""
        linker = StreamingLinker(origin=_origin(cab_pair), config=LinkageConfig())
        _feed(linker, cab_pair)
        before_memory = linker.memory_stats()

        monkeypatch.setattr(MatchingStage, "run", _boom)
        with pytest.raises(_Boom):
            linker.relink()
        monkeypatch.undo()

        assert linker.memory_stats() == before_memory
        assert linker.last_relink is None
        assert linker.relink().links  # and the linker still works

    def test_attached_cache_not_polluted_by_failed_relink(
        self, cab_pair, monkeypatch
    ):
        """Regression (satellite): a ScoreCache attached at construction
        must not retain rows staged during a relink that rolled back."""
        cache = ScoreCache()
        linker = StreamingLinker(
            origin=_origin(cab_pair), config=LinkageConfig(), score_cache=cache
        )
        _feed(linker, cab_pair)

        monkeypatch.setattr(MatchingStage, "run", _boom)
        with pytest.raises(_Boom):
            linker.relink()
        monkeypatch.undo()

        # Scoring ran and stored rows before matching raised; all of them
        # belong to the rolled-back relink and must be gone.
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0

        # The cache still works for the linker that owns it afterwards.
        linker.relink()
        assert len(cache) > 0

    def test_lsh_placements_rolled_back(self, cab_pair, monkeypatch):
        """With LSH enabled, a failed relink must withdraw the band
        placements staged for the new data — checked at bucket level, not
        just entity counts."""
        config = LinkageConfig(
            lsh=LshConfig(threshold=0.4, step_windows=8, spatial_level=14)
        )
        mid = _midpoint(cab_pair)
        linker = StreamingLinker(origin=_origin(cab_pair), config=config)
        control = StreamingLinker(origin=_origin(cab_pair), config=config)
        for target in (linker, control):
            _feed(target, cab_pair, hi=mid)
            target.relink()
            _feed(target, cab_pair, lo=mid)

        entities = linker.score_cache.entities
        before_index = state(linker._lsh_index, entities)
        before_memory = linker.memory_stats()

        monkeypatch.setattr(LshIndex, "candidate_pairs", _boom)
        with pytest.raises(_Boom):
            linker.relink()
        monkeypatch.undo()

        assert state(linker._lsh_index, entities) == before_index
        assert linker.memory_stats() == before_memory

        retry = linker.relink()
        expected = control.relink()
        assert retry.links == expected.links
        assert retry.candidate_pairs == expected.candidate_pairs
        assert linker.memory_stats() == control.memory_stats()


def _table(linker):
    """The pair table by value: its pairs as ids, each with its cache
    values and history sizes (record positions are allocation detail)."""
    table, cache = linker._pair_table, linker.score_cache
    lefts, rights = split_codes(table.pairs)
    (record,) = cache._records.values()  # the linker's one space
    at = record.pairs.searchsorted(table.pairs)
    values = zip(
        *(column[at].tolist() for column in record.columns),
        table.left_size.tolist(), table.right_size.tolist(),
    )
    ids = zip(
        cache.entities.ids(0, lefts).tolist(), cache.entities.ids(1, rights).tolist()
    )
    return dict(zip(ids, values))


def _layers(linker):
    """Everything a relink transaction writes, by value: the index's
    placements / stats and candidate pairs, by id, the cache's
    pair -> values mapping and its counters, the pair table, the report."""
    index, entities = linker._lsh_index, linker.score_cache.entities
    cache = linker.score_cache.checkpoint()
    # By pair (the scoring space embeds each linker's own corpus tokens),
    # as a mapping: key order is not cache state.
    entries = {key[1:]: values for key, values in capture_rows(cache).items()}
    return (
        state(index, entities),
        pair_ids(index.candidate_pairs(), entities),
        (entries, cache["hits"], cache["misses"]),
        _table(linker),
        linker.memory_stats(),
        linker.last_relink,
    )


def test_failure_at_any_point_rolls_back_every_layer(sm_pair, relink_failures):
    """A *delta* round (persistent index, resident pair table, a
    by-reference ``checkpoint()``) failing after retention, with the index
    half-updated, with the re-scored rows already stored, in matching or
    in threshold: every layer reads as before — so the next failure
    starts from the same state — and the final retry equals a control
    linker that never failed."""
    config = LinkageConfig(
        lsh=LshConfig(threshold=0.3, step_windows=48, spatial_level=14)
    )
    late = _midpoint(sm_pair, 0.95)
    linker = StreamingLinker(_origin(sm_pair), config)
    control = StreamingLinker(_origin(sm_pair), config)
    for target in (linker, control):
        _feed(target, sm_pair, hi=late)
        target.relink()
        _feed(target, sm_pair, lo=late)
    before = _layers(linker)
    assert linker._pair_table.source is linker._lsh_index  # the delta path

    for point in relink_failures.points:
        with relink_failures(point), pytest.raises(relink_failures.Boom):
            linker.relink()
        assert _layers(linker) == before, point

    retry, expected = linker.relink(), control.relink()
    assert not linker.last_relink.lsh_rebuilt
    assert 0 < linker.last_relink.pairs_rescored
    assert retry.links == expected.links
    assert retry.edges == expected.edges
    assert retry.stats == expected.stats
    assert linker.last_relink == control.last_relink
    assert _layers(linker)[:6] == _layers(control)[:6]
