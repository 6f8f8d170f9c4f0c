"""The LSH index's delta-maintained candidate pairs.

After any ``add`` / ``remove`` sequence the maintained pair set, the
appeared/disappeared report and ``stats`` must equal what a fresh index
over the same final membership enumerates — and a transaction's journal
must put back exactly what the transaction overwrote.
"""

import dataclasses
import random

import pytest

from repro.lsh.index import LshConfig, LshIndex
from repro.pipeline import LinkageConfig
from repro.pipeline.context import LinkageContext
from repro.pipeline.stages import LshCandidates

LEVEL = 14


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


# num_buckets=1: every band of every entity lands in the one bucket, so
# each entity sits in it several times — the duplicate-placement case.
@pytest.mark.parametrize("num_buckets", [1, 3, 4096])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_updates_equal_a_fresh_enumeration(num_buckets, seed):
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
        else:
            # Re-signature in place, as the streaming linker does.
            index.remove(entity, side)
            members[(side, entity)] = _signature(rng, spec.length)
            index.add(entity, members[(side, entity)], side)
        if step % 3 == 0:
            appeared, disappeared = index.candidate_delta()
            assert not appeared & disappeared
            assert appeared.isdisjoint(mirror) and disappeared <= mirror
            mirror = (mirror - disappeared) | appeared
            fresh, expected = _fresh(config, spec, members)
            assert mirror == expected == index._pairs
            assert dataclasses.asdict(index.stats) == dataclasses.asdict(fresh.stats)
    assert index.candidate_pairs() == _fresh(config, spec, members)[1]
    assert index.candidate_delta() == (set(), set())  # the full answer resets it


def test_unmoved_resignature_reports_nothing():
    config = _config(4096)
    spec = config.signature_spec(64)
    index = LshIndex(config, spec)
    signature = tuple(range(100, 100 + spec.length))
    index.add("l", signature, "left")
    index.add("r", signature, "right")
    assert index.candidate_pairs() == {("l", "r")}
    index.remove("l", "left")
    index.add("l", signature, "left")
    assert index.candidate_delta() == (set(), set())
    index.remove("r", "right")
    assert index.candidate_delta() == (set(), {("l", "r")})


def test_delta_needs_an_enumeration_first():
    config = _config(4096)
    index = LshIndex(config, config.signature_spec(64))
    with pytest.raises(RuntimeError, match="candidate_pairs"):
        index.candidate_delta()


def test_batch_population_never_maintains_pairs(sm_pair, monkeypatch):
    """A batch ``LshCandidates`` run pays for one enumeration and nothing
    else: no maintained structure exists before its single
    ``candidate_pairs()`` call, and no delta bookkeeping ever runs."""
    from repro.core.history import build_histories
    from repro.temporal import common_windowing

    def never(*args, **kwargs):
        raise AssertionError("delta maintenance ran during batch population")

    monkeypatch.setattr(LshIndex, "_shift_pairs", never)
    calls = []
    original = LshIndex.candidate_pairs

    def counted(self):
        assert self._pairs is None and not self._appeared and not self._disappeared
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


@pytest.mark.parametrize("tracking", [True, False])
@pytest.mark.parametrize("seed", [0, 1])
def test_journal_puts_back_exactly_what_was_overwritten(seed, tracking):
    """Bucket list order, placements, stats, the maintained set and the
    pending delta all read as before the transaction — whether or not the
    buckets had been enumerated when it began."""
    rng = random.Random(seed)
    config = _config(3)
    spec = config.signature_spec(64)
    index = LshIndex(config, spec)
    for k in range(6):
        index.add(f"l{k}", _signature(rng, spec.length), "left")
        index.add(f"r{k}", _signature(rng, spec.length), "right")
    if tracking:
        index.candidate_pairs()
        index.remove("l0", "left")  # a pending, unconsumed delta
    before = index.checkpoint()
    before_pairs = None if index._pairs is None else set(index._pairs)
    before_pending = (set(index._appeared), set(index._disappeared))

    journal = index._begin()
    index.update_spec(config.signature_spec(63))
    for k in (1, 2, 7):
        index.remove(f"l{k}", "left")
        index.add(f"l{k}", _signature(rng, spec.length), "left")
    index.remove("r3", "right")
    index.candidate_pairs()
    index.add("r9", _signature(rng, spec.length), "right")
    index.candidate_delta()
    index.restore(journal)

    after = index.checkpoint()
    assert after == before  # dicts: bucket ids, list *order* inside each
    assert index._pairs == before_pairs
    assert (index._appeared, index._disappeared) == before_pending
    assert index.num_bands == LshIndex(config, spec).num_bands
    assert index._journal is None
