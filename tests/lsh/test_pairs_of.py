"""The LSH index answers candidate-pair queries; it maintains no pair set.

A caller that keeps its own candidate set — the streaming linker's pair
table — follows any ``add`` / ``remove`` sequence by dropping the pairs
of the entities it changed and adding their :meth:`LshIndex.pairs_of`.
That mirror, and ``stats`` once the caller records the mirror's size,
must equal what a fresh index over the same final membership
enumerates — and a transaction's journal must put back exactly what the
transaction overwrote.
"""

import dataclasses
import pickle
import random

import pytest

from repro.lsh.index import LshConfig, LshIndex
from repro.pipeline import LinkageConfig
from repro.pipeline.context import LinkageContext
from repro.pipeline.stages import LshCandidates

LEVEL = 14


def _membership(index):
    """Each bucket's members per side, as sorted lists."""
    return {b: (sorted(ls), sorted(rs)) for b, (ls, rs) in index._buckets.items()}


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
    """A cold index over ``members``: the from-scratch answer."""
    index = LshIndex(config, spec)
    for (side, entity), signature in members.items():
        index.add(entity, signature, side)
    return index, index.candidate_pairs()


def _follow(index, mirror, changed):
    """The streaming linker's rule: drop every pair touching a changed
    entity, add back the pairs of those the index still places, and
    record the result's size in the index's stats."""
    lefts, rights = changed["left"], changed["right"]
    kept = {pair for pair in mirror if pair[0] not in lefts and pair[1] not in rights}
    mirror = kept | index.pairs_of(lefts, rights)
    index.stats.candidate_pairs = len(mirror)
    return mirror


# num_buckets=1: every band of every entity lands in the one bucket, so
# each entity sits in it several times — the duplicate-placement case.
@pytest.mark.parametrize("num_buckets", [1, 3, 4096])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_following_changed_entities_equals_a_fresh_enumeration(num_buckets, seed):
    rng = random.Random(seed)
    config = _config(num_buckets)
    spec = config.signature_spec(64)
    index = LshIndex(config, spec)
    members = {}
    for k in range(6):
        for side in ("left", "right"):
            members[(side, f"{side[0]}{k}")] = _signature(rng, spec.length)
            index.add(f"{side[0]}{k}", members[(side, f"{side[0]}{k}")], side)
    mirror = index.candidate_pairs()  # the enumerating call
    assert mirror == _fresh(config, spec, members)[1]

    changed = {"left": set(), "right": set()}
    for step in range(60):
        side = rng.choice(("left", "right"))
        entity = f"{side[0]}{rng.randrange(9)}"
        roll = rng.random()
        if roll < 0.15:
            assert index.remove("nobody", side) == 0  # unknown id: a no-op
        elif roll < 0.25:
            # A grown span inside the same last slot: layout unchanged.
            spec = config.signature_spec(64 - rng.randrange(4))
            index.update_spec(spec)
        elif roll < 0.55:
            removed = index.remove(entity, side)
            assert (removed > 0) == bool(members.pop((side, entity), None))
            changed[side].add(entity)
        else:
            # Re-signature in place, as the streaming linker does.
            members[(side, entity)] = _signature(rng, spec.length)
            index.add(entity, members[(side, entity)], side)
            changed[side].add(entity)
        if step % 3 == 0:
            mirror = _follow(index, mirror, changed)
            changed = {"left": set(), "right": set()}
            fresh, expected = _fresh(config, spec, members)
            assert dataclasses.asdict(index.stats) == dataclasses.asdict(fresh.stats)
            assert mirror == expected
            # pairs_of is exactly the enumeration restricted to the named
            # entities, placed or not.
            lefts = {f"l{k}" for k in range(10) if rng.random() < 0.3}
            rights = {f"r{k}" for k in range(10) if rng.random() < 0.3}
            assert index.pairs_of(lefts, rights) == {
                pair for pair in expected if pair[0] in lefts or pair[1] in rights
            }
    mirror = _follow(index, mirror, changed)
    fresh, expected = _fresh(config, spec, members)
    assert index.candidate_pairs() == mirror == expected
    assert index.stats == fresh.stats


def test_unmoved_resignature_changes_nothing():
    config = _config(4096)
    spec = config.signature_spec(64)
    index = LshIndex(config, spec)
    signature = tuple(range(100, 100 + spec.length))
    index.add("l", signature, "left")
    index.add("r", signature, "right")
    mirror = index.candidate_pairs()
    assert mirror == {("l", "r")}
    before, buckets = index.checkpoint(), _membership(index)
    index.add("l", signature, "left")  # withdrawn, then placed as before
    assert index.checkpoint() == before
    assert _membership(index) == buckets
    assert _follow(index, mirror, {"left": {"l"}, "right": set()}) == mirror
    assert index.stats == before["stats"]
    index.remove("r", "right")
    assert index.pairs_of({"l"}, {"r"}) == set()
    assert _follow(index, mirror, {"left": set(), "right": {"r"}}) == set()


def test_batch_population_enumerates_once_and_queries_nothing(sm_pair, monkeypatch):
    """A batch ``LshCandidates`` run pays for one enumeration and nothing
    else: a single ``candidate_pairs()`` call, never a ``pairs_of``."""
    from repro.core.history import build_histories
    from repro.temporal import common_windowing

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


@pytest.mark.parametrize("seed", [0, 1])
def test_journal_puts_back_exactly_what_was_overwritten(seed):
    """Bucket list order, placements, spec, ``num_bands`` and stats all
    read as before the transaction."""
    rng = random.Random(seed)
    config = _config(3)
    spec = config.signature_spec(64)
    index = LshIndex(config, spec)
    for k in range(6):
        index.add(f"l{k}", _signature(rng, spec.length), "left")
        index.add(f"r{k}", _signature(rng, spec.length), "right")
    index.candidate_pairs()
    before = index.checkpoint()
    buckets = {b: (list(ls), list(rs)) for b, (ls, rs) in index._buckets.items()}
    num_bands = index.num_bands

    journal = index._begin()
    index.update_spec(config.signature_spec(63))
    for k in (1, 2, 7):
        index.remove(f"l{k}", "left")
        index.add(f"l{k}", _signature(rng, spec.length), "left")
    index.remove("r3", "right")
    index.add("r9", _signature(rng, spec.length), "right")
    index.candidate_pairs()
    index.restore(journal)

    after = index.checkpoint()
    # dicts: placements, spec, stats — and the buckets, list *order*
    # inside each included
    assert after == before
    assert index._buckets == buckets
    assert index.num_bands == num_bands
    assert index._journal is None


@pytest.mark.parametrize("num_buckets", [1, 3, 4096])
@pytest.mark.parametrize("seed", [0, 1])
def test_an_index_restored_from_its_placements_answers_like_the_live_one(
    num_buckets, seed
):
    """The capture holds no buckets: a restore rebuilds them from the
    placements — also after a rolled-back transaction put withdrawn
    placements back — and the rebuilt index has the live one's bucket
    membership, candidate pairs, ``pairs_of`` answers and stats."""
    rng = random.Random(seed)
    config = _config(num_buckets)
    spec = config.signature_spec(64)
    live = LshIndex(config, spec)
    for k in range(6):
        live.add(f"l{k}", _signature(rng, spec.length), "left")
        live.add(f"r{k}", _signature(rng, spec.length), "right")
    journal = live._begin()
    for k in (1, 2):
        live.remove(f"l{k}", "left")
        live.add(f"l{k}", _signature(rng, spec.length), "left")
    live.remove("r3", "right")
    live.restore(journal)  # l1, l2 and r3 re-enter the placements last
    live.add("l4", _signature(rng, spec.length), "left")
    live.candidate_pairs()

    restored = LshIndex(config, config.signature_spec(8))
    restored.restore(pickle.loads(pickle.dumps(live.checkpoint())))
    assert _membership(restored) == _membership(live)
    assert restored.candidate_pairs() == live.candidate_pairs()
    lefts, rights = [f"l{k}" for k in range(7)], [f"r{k}" for k in range(7)]
    for entity in lefts:
        assert restored.pairs_of([entity], []) == live.pairs_of([entity], [])
    for entity in rights:
        assert restored.pairs_of([], [entity]) == live.pairs_of([], [entity])
    assert restored.pairs_of(lefts, rights) == live.pairs_of(lefts, rights)
    assert restored.stats == live.stats
    assert (restored.spec, restored.num_bands) == (live.spec, live.num_bands)
