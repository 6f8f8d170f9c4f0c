"""The pair table is the streaming linker's one maintained candidate set.

Under LSH the linker keeps no second pair set: its pair table follows
each relink's corpus delta through :meth:`LshIndex.pairs_of`.  After
every relink of a seeded stream — retention evictions, an explicit
``retire()``, a retired id observed again, a signature-layout rebuild —
the index's stats equal a cold index's over the surviving histories, and
the table's keys are exactly the index's enumerated candidate set.  Link
parity cannot see a missing or ghost pair whose score is <= 0; this can.
"""

import random

import pytest
from lsh_calls import history_pairs, pair_ids

from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh.index import LshConfig, LshIndex
from repro.pipeline import LinkageConfig

SIDES = ("left", "right")
HOUR = 3600.0
CONFIG = LinkageConfig(
    lsh=LshConfig(threshold=0.3, step_windows=8, spatial_level=14),
    retention="max_entities",
    retention_window=9,
)


def _records(entity, side, place, when, count):
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(
            entity,
            37.6 + (place % 5) * 0.01 + jitter,
            -122.4 + (place // 5) * 0.01 + jitter,
            when + 40.0 * k,
        )
        for k in range(count)
    ]


def _assert_table_is_the_candidate_set(linker):
    index = linker._lsh_index
    assert index.spec == CONFIG.lsh.signature_spec(linker.total_windows())
    cold = LshIndex(CONFIG.lsh, index.spec)
    cold.add_histories(linker._sides["left"], linker._sides["right"])
    expected = history_pairs(cold, linker._sides["left"], linker._sides["right"])
    # Stats first: candidate_pairs() below refreshes them.
    assert index.stats == cold.stats
    entities = linker.score_cache.entities
    table = pair_ids(linker._pair_table.pairs, entities)
    assert table == pair_ids(index.candidate_pairs(), entities) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table_keys_are_the_index_candidate_pairs(seed):
    rng = random.Random(seed)
    linker = StreamingLinker(origin=0.0, config=CONFIG)
    held = {side: set() for side in SIDES}
    clock = 10.0
    for entity in range(8):
        for side in SIDES:
            linker.observe(side, _records(f"e{entity}", side, entity, clock, 3))
            held[side].add(f"e{entity}")
    linker.relink()
    _assert_table_is_the_candidate_set(linker)

    # Delta rounds that withdrew evicted entities, layout rebuilds,
    # explicit retirements.
    seen = {"delta_evicted": 0, "rebuilt": 0, "retired": 0}
    fresh = 8
    # A scripted skeleton with random filling: every kind of event occurs
    # (past 9 entities a side, each "add" evicts the least recently seen).
    script = ["grow", "add", "add", "retire", "grow", "jump", "add",
              "retire-again", "add", "jump", "grow", "add", "add", "grow"]
    for op in script:
        clock += rng.choice((60.0, 400.0, 1500.0))
        side = rng.choice(SIDES)
        if op == "grow":
            for _ in range(rng.randint(1, 3)):
                entity = rng.choice(sorted(held[side]))
                place = int(entity[1:]) + rng.choice((0, 0, 1))
                linker.observe(side, _records(entity, side, place, clock, 2))
        elif op == "add":
            entity, fresh = f"e{fresh}", fresh + 1
            linker.observe(side, _records(entity, side, int(entity[1:]), clock, 2))
            held[side].add(entity)
        elif op.startswith("retire"):
            entity = rng.choice(sorted(held[side]))
            linker.retire(side, [entity])
            held[side].discard(entity)
            seen["retired"] += 1
            if op == "retire-again":
                place = int(entity[1:]) + 7
                linker.observe(side, _records(entity, side, place, clock, 2))
                held[side].add(entity)
        else:
            # Span growth: the signature gains slots, the layout rebuilds.
            clock += rng.choice((9, 12)) * HOUR
            for target in SIDES:
                entity = rng.choice(sorted(held[target]))
                linker.observe(target, _records(entity, target, int(entity[1:]), clock, 1))
        table = linker._pair_table
        aligned = table.source is linker._lsh_index
        linker.relink()
        stats = linker.last_relink
        held = {target: set(linker._sides[target]) for target in SIDES}
        seen["rebuilt"] += stats.lsh_rebuilt
        evicted = stats.evicted_left + stats.evicted_right
        seen["delta_evicted"] += aligned and not stats.lsh_rebuilt and evicted > 0
        _assert_table_is_the_candidate_set(linker)
        # A relink with nothing new follows an empty delta.
        linker.relink()
        _assert_table_is_the_candidate_set(linker)
    assert all(seen.values()), seen
