"""Document-frequency slots stay the slots of their bins through refreshes.

``HistoryCorpus.refresh`` numbers the bins no df slot counts yet past the
end of the df table, in ascending bin order, and gives each flat entry
holding one the slot of its rank there — it does not search the grown
table again.  Over seeded sequences of arrivals, growth, evictions (with
the compaction each one runs) and no-op refreshes, every resident's flat
entry must hold the slot :meth:`HistoryCorpus._bin_slots` finds for the
bin recomputed from the entry — its directory window and the cell-table
row of its cell — and the df table must hold that bin at that slot.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.corpus import _ROW_BITS, HistoryCorpus
from repro.core.history import MobilityHistory
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)
LEVEL = 12


def _columns(rng: random.Random, count: int):
    """Records on a coarse grid over a dozen windows: bins shared by
    several entities, and new bins as often as known ones."""
    stamps = np.array([rng.randrange(12) * 900.0 + rng.random() * 800.0 for _ in range(count)])
    lats = np.array([37.70 + 0.02 * rng.randrange(5) for _ in range(count)])
    lngs = np.array([-122.45 + 0.02 * rng.randrange(5) for _ in range(count)])
    return stamps, lats, lngs


def _history(entity_id: str, rng: random.Random) -> MobilityHistory:
    return MobilityHistory.from_columns(
        entity_id, *_columns(rng, rng.randrange(1, 7)), WINDOWING, 14
    )


def _check(corpus: HistoryCorpus) -> int:
    """Assert every resident entry's slot; returns the entries checked."""
    arrays, table = corpus.arrays(), corpus.cell_table()
    keys, slots = np.asarray(arrays.keys), np.asarray(arrays.slots)
    cells = np.asarray(arrays.cells)
    checked = 0
    for entity_id in corpus._row_of:
        index = corpus.window_index(entity_id)
        at = np.concatenate(
            [np.empty(0, np.int64)]
            + [np.arange(o, o + c) for o, c in zip(index.offsets, index.counts)]
        )
        assert table.cell_ids[slots[at]].tolist() == cells[at].tolist()
        bins = (np.repeat(index.windows, index.counts) << _ROW_BITS) | slots[at]
        assert keys[at].tolist() == corpus._bin_slots(bins).tolist()
        assert corpus._df_bins[keys[at]].tolist() == bins.tolist()
        checked += len(at)
    return checked


def _sequence(seed: int):
    """One seeded refresh sequence, checked after every step; returns how
    many refreshes added df slots and how many compacted the flats."""
    rng = random.Random(seed)
    histories = {f"e{k}": _history(f"e{k}", rng) for k in range(rng.randrange(1, 6))}
    corpus = HistoryCorpus(histories, LEVEL)
    assert _check(corpus)
    newcomers = iter(range(1000))
    fresh = compactions = 0
    for _ in range(20):
        step = rng.choice(["arrive", "grow", "evict", "noop"])
        allocated, slots = corpus.memory_stats()["flat_entries"], len(corpus._df_bins)
        if step == "arrive":
            for _ in range(rng.randrange(1, 4)):
                entity_id = f"n{next(newcomers)}"
                histories[entity_id] = _history(entity_id, rng)
        elif step == "grow":
            for entity_id in rng.sample(sorted(histories), min(3, len(histories))):
                histories[entity_id].extend(*_columns(rng, rng.randrange(1, 5)))
        elif step == "evict" and len(histories) > 2:
            for entity_id in rng.sample(sorted(histories), rng.randrange(1, 3)):
                del histories[entity_id]
        corpus.refresh()
        fresh += len(corpus._df_bins) > slots
        compactions += corpus.memory_stats()["flat_entries"] < allocated
        _check(corpus)
    return fresh, compactions


def test_every_flat_entry_holds_the_slot_of_its_bin():
    counts = [_sequence(seed) for seed in range(16)]
    # Not vacuous: refreshes added df slots, and evictions compacted.
    assert all(fresh for fresh, _ in counts)
    assert sum(compactions for _, compactions in counts) > 0
