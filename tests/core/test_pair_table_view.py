"""The streaming linker's pair table is a view of the score cache.

A pair is asked about again when the cache no longer holds it under
both endpoints' current history versions — checked against the space's
record (its pair codes and version columns), not told by a count of the
cache's changes or by the corpus' list of grown entities.  So what leaves this linker's
rows alone (another space's sweep) re-asks nothing, an explicit
``retire()`` keeps the LSH delta path instead of re-enumerating every
candidate, and a row that an outside ``restore()`` rewound to older
versions is asked about again; either way the relink equals a cold one.
"""

from unittest import mock

from cache_calls import store
from repro.core.score_cache import ScoreCache
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh.index import LshConfig, LshIndex
from repro.pipeline import LinkageConfig

SIDES = ("left", "right")
CONFIG = LinkageConfig(
    lsh=LshConfig(threshold=0.3, step_windows=8, spatial_level=14),
    threshold="none",
)
ENTITIES = 12


def _records(entity, side, place, when, count):
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(
            entity,
            37.6 + (place % 4) * 0.01 + jitter,
            -122.4 + (place // 4) * 0.01 + jitter,
            when + 40.0 * k,
        )
        for k in range(count)
    ]


def _feed(linker, records):
    for side in SIDES:
        linker.observe(side, records[side])


def _world():
    """Twelve entities a side (two to a place, so candidates overlap)."""
    return {
        side: [
            record
            for k in range(ENTITIES)
            for record in _records(f"e{k}", side, k // 2, 10.0 + 7.0 * k, 3)
        ]
        for side in SIDES
    }


def _relinked(records):
    linker = StreamingLinker(origin=0.0, config=CONFIG)
    _feed(linker, records)
    linker.relink()
    return linker


def _outcome(report):
    return report.links, {(e.left, e.right): e.weight for e in report.edges}


def _counted_relink(linker):
    """Relink; returns the report, the pairs ``lookup_batch`` was asked
    about and the number of ``candidate_pairs()`` enumerations."""
    asked, enumerations = [0], [0]
    lookup, enumerate_all = ScoreCache.lookup_batch, LshIndex.candidate_pairs

    def counted_lookup(cache, space, pairs, *args):
        asked[0] += len(pairs)
        return lookup(cache, space, pairs, *args)

    def counted_enumeration(index):
        enumerations[0] += 1
        return enumerate_all(index)

    with mock.patch.object(ScoreCache, "lookup_batch", counted_lookup), \
            mock.patch.object(LshIndex, "candidate_pairs", counted_enumeration):
        report = linker.relink()
    return report, asked[0], enumerations[0]


def test_another_space_sweep_re_asks_nothing():
    linker = _relinked(_world())
    cache = linker.score_cache
    store(cache, "elsewhere", "e0", "e1", 0, 0, 1.0)
    swept = cache.invalidate_pairs(*cache.entities.codes({"e0"}, ()), space="elsewhere")
    assert swept == 1

    report, asked, enumerations = _counted_relink(linker)
    assert (asked, enumerations) == (0, 0)
    stats = linker.last_relink
    assert stats.candidate_pairs > 0
    assert stats.cache_hits == stats.candidate_pairs
    assert _outcome(report) == _outcome(_relinked(_world()).relink())


def test_a_retire_keeps_the_delta_path():
    world = _world()
    subject, twin = _relinked(world), _relinked(world)
    for linker in (subject, twin):
        linker.retire("left", ["e3"])
    twin._restore(twin.checkpoint())  # a full capture carries no table

    report, _, enumerations = _counted_relink(subject)
    assert enumerations == 0
    assert _outcome(report) == _outcome(twin.relink())
    assert subject.last_relink == twin.last_relink
    survivors = dict(world, left=[r for r in world["left"] if r.entity_id != "e3"])
    assert _outcome(report) == _outcome(_relinked(survivors).relink())


def test_a_grown_entity_is_asked_again():
    world = _world()
    linker = _relinked(world)
    grown = _records("e5", "right", 2, 20_000.0, 2)
    linker.observe("right", grown)

    report, asked, _ = _counted_relink(linker)
    stats = linker.last_relink
    assert stats.dirty_right == 1 and asked >= 1
    assert stats.cache_hits + stats.pairs_rescored == stats.candidate_pairs
    world["right"] = world["right"] + grown
    assert _outcome(report) == _outcome(_relinked(world).relink())


def test_a_row_rewound_by_an_outside_restore_is_asked_again():
    """A pair whose row a ``restore()`` on the attached cache brought
    back at the very index the table holds — with the older versions —
    is not trusted."""
    world = _world()
    for side in SIDES:
        world[side] = world[side] + _records("solo", side, 20, 500.0, 3)
    linker = _relinked(world)
    cache = linker.score_cache
    capture = cache.checkpoint()
    for step in range(2):
        # The lone pair's row is freed, then recycled for it: the row
        # the capture numbers it at.
        grown = {
            side: _records("solo", side, 20, 20_000.0 + 5_000.0 * step, 2)
            for side in SIDES
        }
        _feed(linker, grown)
        for side in SIDES:
            world[side] = world[side] + grown[side]
        linker.relink()
    cache.restore(capture)

    report, asked, _ = _counted_relink(linker)
    # The adopted capture may predate IDF drift: every row of the space
    # is dropped and asked again, the rewound one among them.
    assert asked == 25
    assert linker.last_relink.pairs_rescored == 25
    assert _outcome(report) == _outcome(_relinked(world).relink())
