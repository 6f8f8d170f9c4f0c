"""The LSH index answers candidate-pair queries; it maintains no pair set.

A caller that keeps its own candidate set — the streaming linker's pair
table — follows any ``add_signatures`` / ``remove`` sequence by dropping
the pairs of the entities it changed and adding their
:meth:`LshIndex.pairs_of`.  That mirror, the index's own enumeration and
its ``pairs_of`` answers must equal an independent scalar oracle over the
same final membership (:func:`_oracle`: bucket ids per band, a dict of
bucket members, every bucket's cross product), ``stats`` must equal a
fresh index's once the caller records the mirror's size, and a capture
must put back exactly what later writes replaced.
"""

import dataclasses
import pickle
import random

import numpy as np
import pytest
from lsh_calls import SIDES, Named, history_pairs, signatures_to_array

from repro.core.history import build_histories
from repro.lsh.banding import band_bucket_ids, bands_for_threshold
from repro.lsh.index import LshConfig, LshIndex
from repro.lsh.signature import signature_matrix
from repro.pipeline import LinkageConfig
from repro.pipeline.context import LinkageContext
from repro.pipeline.stages import LshCandidates
from repro.temporal import common_windowing

LEVEL = 14


def _oracle(config, spec, members):
    """The candidate set from scratch by a route that shares nothing with
    the index past band hashing: each ``(side, entity) -> signature``
    member's bucket ids into a dict ``bucket -> (lefts, rights)``, then
    every bucket's cross product."""
    num_bands = bands_for_threshold(spec.length, config.threshold)
    buckets = {}
    for (side, entity), signature in members.items():
        row = band_bucket_ids(
            signatures_to_array([signature]), num_bands, config.num_buckets
        )[0]
        for bucket in row.tolist():
            if bucket >= 0:
                members_of = buckets.setdefault(bucket, (set(), set()))
                members_of[SIDES.index(side)].add(entity)
    return {(l, r) for lefts, rights in buckets.values() for l in lefts for r in rights}


def _config(num_buckets):
    return LshConfig(
        threshold=0.5, step_windows=4, spatial_level=LEVEL, num_buckets=num_buckets
    )


def _signature(rng, length):
    """A few distinct cells and some placeholders, so signatures collide
    band-wise often enough to form candidate pairs."""
    return tuple(
        None if rng.random() < 0.2 else 100 + rng.randrange(3)
        for _ in range(length)
    )


def _fresh(config, spec, members):
    """A cold index over ``members``: the from-scratch stats."""
    index = Named(LshIndex(config, spec))
    for (side, entity), signature in members.items():
        index.add(entity, signature, side)
    index.candidate_pairs()
    return index.index


def _follow(index, mirror, changed):
    """The streaming linker's rule: drop every pair touching a changed
    entity, add back the pairs of those the index still places, and
    record the result's size in the index's stats."""
    lefts, rights = changed["left"], changed["right"]
    kept = {pair for pair in mirror if pair[0] not in lefts and pair[1] not in rights}
    mirror = kept | index.pairs_of(lefts, rights)
    index.index.stats.candidate_pairs = len(mirror)
    return mirror


# num_buckets=1: every band of every entity lands in the one bucket, so
# each entity sits in it several times — the duplicate-placement case;
# 3: bands of different index collide; 4096: the paper's table.
@pytest.mark.parametrize("num_buckets", [1, 3, 4096])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_following_changed_entities_equals_the_oracle(num_buckets, seed):
    rng = random.Random(seed)
    config = _config(num_buckets)
    spec = config.signature_spec(64)
    index = Named(LshIndex(config, spec))
    members = {}
    for k in range(6):
        for side in SIDES:
            members[(side, f"{side[0]}{k}")] = _signature(rng, spec.length)
            index.add(f"{side[0]}{k}", members[(side, f"{side[0]}{k}")], side)
    mirror = index.candidate_pairs()  # the enumerating call
    assert mirror == _oracle(config, spec, members)

    changed = {"left": set(), "right": set()}
    for step in range(60):
        side = rng.choice(SIDES)
        entity = f"{side[0]}{rng.randrange(9)}"
        roll = rng.random()
        if roll < 0.15:
            before = index.placements()
            index.remove("nobody", side)  # never placed: a no-op
            assert index.placements() == before
        elif roll < 0.25:
            # A grown span inside the same last slot: layout unchanged.
            spec = config.signature_spec(64 - rng.randrange(4))
            index.index.update_spec(spec)
        elif roll < 0.55:
            index.remove(entity, side)
            members.pop((side, entity), None)
            changed[side].add(entity)
        else:
            # Re-signature in place, as the streaming linker does.
            members[(side, entity)] = _signature(rng, spec.length)
            index.add(entity, members[(side, entity)], side)
            changed[side].add(entity)
        if step % 3 == 0:
            mirror = _follow(index, mirror, changed)
            changed = {"left": set(), "right": set()}
            expected = _oracle(config, spec, members)
            fresh = _fresh(config, spec, members)
            assert dataclasses.asdict(index.index.stats) == dataclasses.asdict(
                fresh.stats
            )
            assert mirror == expected
            # pairs_of is exactly the candidate set restricted to the
            # named entities, placed or not.
            lefts = {f"l{k}" for k in range(10) if rng.random() < 0.3}
            rights = {f"r{k}" for k in range(10) if rng.random() < 0.3}
            assert index.pairs_of(lefts, rights) == {
                pair for pair in expected if pair[0] in lefts or pair[1] in rights
            }
    mirror = _follow(index, mirror, changed)
    expected = _oracle(config, spec, members)
    assert index.candidate_pairs() == mirror == expected
    assert index.index.stats == _fresh(config, spec, members).stats
    # Both ways of asking return ascending, distinct pair codes.
    for codes in (index.index.candidate_pairs(), index.index.pairs_of(
        *index.entities.codes([f"l{k}" for k in range(9)], [])
    )):
        assert codes.dtype == np.int64 and (np.diff(codes) > 0).all()


def test_the_sm_pair_candidate_set_equals_the_oracle(sm_pair):
    """On real-shaped data: the batch population (each side coded by
    sorted-id position) enumerates the oracle's set, and ``pairs_of``
    answers the oracle's restriction for a few entities per side."""
    config = LshConfig(threshold=0.3, step_windows=48, spatial_level=LEVEL)
    windowing = common_windowing(
        (sm_pair.left.time_range(), sm_pair.right.time_range()), 900.0
    )
    end = max(sm_pair.left.time_range()[1], sm_pair.right.time_range()[1])
    spec = config.signature_spec(windowing.index_of(end) + 1)
    sides = [
        build_histories(dataset, windowing, LEVEL)
        for dataset in (sm_pair.left, sm_pair.right)
    ]
    members = {}
    for side, histories in zip(SIDES, sides):
        rows = signature_matrix(histories, spec).tolist()
        for entity, row in zip(histories, rows):
            members[(side, entity)] = tuple(value or None for value in row)
    expected = _oracle(config, spec, members)

    index = LshIndex(config, spec)
    index.add_histories(*sides)
    assert len(expected) > 100
    assert history_pairs(index, *sides) == expected

    named = Named(index)
    named.entities.codes(sorted(sides[0]), sorted(sides[1]))
    lefts, rights = sorted(sides[0])[:4], sorted(sides[1])[-4:]
    assert named.pairs_of(lefts, rights) == {
        pair for pair in expected if pair[0] in lefts or pair[1] in rights
    }


def test_unmoved_resignature_changes_nothing():
    config = _config(4096)
    spec = config.signature_spec(64)
    index = Named(LshIndex(config, spec))
    signature = tuple(range(100, 100 + spec.length))
    index.add("l", signature, "left")
    index.add("r", signature, "right")
    mirror = index.candidate_pairs()
    assert mirror == {("l", "r")}
    before, placed = index.index.checkpoint(), index.placements()
    index.add("l", signature, "left")  # replaced by the same row
    assert index.placements() == placed
    assert _follow(index, mirror, {"left": {"l"}, "right": set()}) == mirror
    assert index.index.stats == before["stats"]
    index.remove("r", "right")
    assert index.pairs_of({"l"}, {"r"}) == set()
    assert _follow(index, mirror, {"left": set(), "right": {"r"}}) == set()


def test_batch_population_enumerates_once_and_queries_nothing(sm_pair, monkeypatch):
    """A batch ``LshCandidates`` run pays for one enumeration and nothing
    else: a single ``candidate_pairs()`` call, never a ``pairs_of``."""

    def never(*args, **kwargs):
        raise AssertionError("pairs_of ran during batch population")

    monkeypatch.setattr(LshIndex, "pairs_of", never)
    calls = []
    original = LshIndex.candidate_pairs

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LshIndex, "candidate_pairs", counted)
    config = LinkageConfig(
        lsh=LshConfig(threshold=0.3, step_windows=48, spatial_level=LEVEL)
    )
    windowing = common_windowing(
        (sm_pair.left.time_range(), sm_pair.right.time_range()),
        config.similarity.window_width_seconds,
    )
    context = LinkageContext(config=config)
    context.left_histories = build_histories(sm_pair.left, windowing, LEVEL)
    context.right_histories = build_histories(sm_pair.right, windowing, LEVEL)
    context.total_windows = (
        windowing.index_of(
            max(sm_pair.left.time_range()[1], sm_pair.right.time_range()[1])
        )
        + 1
    )
    LshCandidates(config).run(context)
    assert len(calls) == 1 and context.candidates
    # An already-sorted list of id pairs: the scoring stage skips its sort.
    assert context.candidates == sorted(context.candidates)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_capture_puts_back_exactly_what_later_writes_replaced(seed):
    """The capture holds the bucket matrices by reference: writes after
    it replace matrices rather than change them, so restoring it gives
    back the same arrays, spec, ``num_bands`` and stats."""
    rng = random.Random(seed)
    config = _config(3)
    spec = config.signature_spec(64)
    index = Named(LshIndex(config, spec))
    for k in range(6):
        index.add(f"l{k}", _signature(rng, spec.length), "left")
        index.add(f"r{k}", _signature(rng, spec.length), "right")
    index.candidate_pairs()
    before = index.index.checkpoint()
    matrices = [matrix.copy() for matrix in before["matrices"]]
    pairs, num_bands = index.candidate_pairs(), index.index.num_bands

    index.index.update_spec(config.signature_spec(63))
    for k in (1, 2, 7):
        index.remove(f"l{k}", "left")
        index.add(f"l{k}", _signature(rng, spec.length), "left")
    index.remove("r3", "right")
    index.add("r9", _signature(rng, spec.length), "right")
    index.candidate_pairs()
    for kept, matrix in zip(matrices, before["matrices"]):
        assert np.array_equal(kept, matrix)  # the capture never moved
    index.index.restore(before)

    after = index.index.checkpoint()
    assert all(a is b for a, b in zip(after["matrices"], before["matrices"]))
    assert (after["spec"], after["stats"]) == (before["spec"], before["stats"])
    assert index.index.num_bands == num_bands
    assert index.candidate_pairs() == pairs


@pytest.mark.parametrize("num_buckets", [1, 3, 4096])
@pytest.mark.parametrize("seed", [0, 1])
def test_an_index_restored_from_a_pickled_capture_answers_like_the_live_one(
    num_buckets, seed
):
    """A pickled capture restored into an index of another layout has
    the live one's placements, candidate pairs, ``pairs_of`` answers,
    stats, spec and band count — also after a restore put withdrawn
    placements back."""
    rng = random.Random(seed)
    config = _config(num_buckets)
    spec = config.signature_spec(64)
    live = Named(LshIndex(config, spec))
    for k in range(6):
        live.add(f"l{k}", _signature(rng, spec.length), "left")
        live.add(f"r{k}", _signature(rng, spec.length), "right")
    state = live.index.checkpoint()
    for k in (1, 2):
        live.remove(f"l{k}", "left")
        live.add(f"l{k}", _signature(rng, spec.length), "left")
    live.remove("r3", "right")
    live.index.restore(state)  # l1, l2 and r3 placed as before
    live.add("l4", _signature(rng, spec.length), "left")
    live.candidate_pairs()

    restored = Named(LshIndex(config, config.signature_spec(8)), live.entities)
    restored.index.restore(pickle.loads(pickle.dumps(live.index.checkpoint())))
    assert restored.placements() == live.placements()
    assert restored.candidate_pairs() == live.candidate_pairs()
    lefts, rights = [f"l{k}" for k in range(7)], [f"r{k}" for k in range(7)]
    for entity in lefts:
        assert restored.pairs_of([entity], []) == live.pairs_of([entity], [])
    for entity in rights:
        assert restored.pairs_of([], [entity]) == live.pairs_of([], [entity])
    assert restored.pairs_of(lefts, rights) == live.pairs_of(lefts, rights)
    assert restored.index.stats == live.index.stats
    assert (restored.index.spec, restored.index.num_bands) == (
        live.index.spec, live.index.num_bands
    )
