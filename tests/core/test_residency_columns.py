"""The corpus' residency columns against a cold corpus, step by step.

``HistoryCorpus`` holds who is resident as columns: an id -> row dict,
per-row version / flat slice / directory run arrays, and one directory
table laid end to end like the flats.  Seeded sequences of growth,
arrivals, retirements, stale re-creations, no-op refreshes, a spill,
checkpoint-restores and snapshot round trips run on the memory and disk
backends; after every step each resident's ``window_index`` must read,
through the flats, exactly what a cold corpus over the same histories
reads: the same windows and counts, and at its offsets the same cells,
the same cells through the cell table, the same df bins (window, cell)
with the same document frequencies.  ``history_sizes``, the populated
window count and the ``memory_stats`` counters that do not depend on
garbage agree too.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.core.corpus import _ROW_BITS, HistoryCorpus, _pack_corpus, _unpack_corpus
from repro.core.history import MobilityHistory, _pack_histories, _unpack_histories
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)
LEVEL = 12
STEPS = ("grow", "arrive", "retire", "stale", "noop", "restore", "snapshot")


def _columns(rng: random.Random, count: int):
    """``count`` records on a coarse grid over a dozen windows, so bins
    are shared (df > 1) and entities hold several cells per window."""
    stamps = np.array([rng.randrange(12) * 900.0 + rng.random() * 800.0
                       for _ in range(count)])
    lats = np.array([37.70 + 0.02 * rng.randrange(4) for _ in range(count)])
    lngs = np.array([-122.45 + 0.02 * rng.randrange(4) for _ in range(count)])
    return stamps, lats, lngs


def _history(entity_id: str, rng: random.Random) -> MobilityHistory:
    return MobilityHistory.from_columns(
        entity_id, *_columns(rng, rng.randrange(1, 6)), WINDOWING, 14
    )


def _view(corpus: HistoryCorpus, entity_id: str):
    """What ``window_index`` points at, read through the flats, spelled
    in terms two corpora of the same histories share (cell ids, not
    cell-table rows or df slots)."""
    index = corpus.window_index(entity_id)
    arrays, table = corpus.arrays(), corpus.cell_table()
    at = np.concatenate(
        [np.empty(0, np.int64)]
        + [np.arange(o, o + c) for o, c in zip(index.offsets, index.counts)]
    )
    keys = np.asarray(arrays.keys)[at]
    bins = corpus._df_bins[keys]
    return {
        "windows": index.windows.tolist(),
        "counts": index.counts.tolist(),
        "cells": np.asarray(arrays.cells)[at].tolist(),
        "slot cells": table.cell_ids[np.asarray(arrays.slots)[at]].tolist(),
        "bin windows": (bins >> _ROW_BITS).tolist(),
        "bin cells": table.cell_ids[bins & ((1 << _ROW_BITS) - 1)].tolist(),
        "df": corpus._df_counts[keys].tolist(),
        "idf": arrays.idf_by_slot[keys].tolist(),
    }


def _check(corpus: HistoryCorpus, histories) -> None:
    cold = HistoryCorpus(dict(histories), LEVEL)
    # Rows are numbered in the dict's (residency) order.
    assert set(corpus._row_of) == set(histories)
    assert list(corpus._row_of.values()) == list(range(len(histories)))
    for entity_id in histories:
        assert _view(corpus, entity_id) == _view(cold, entity_id), entity_id
    ids = list(histories)
    assert corpus.history_sizes(ids).tolist() == cold.history_sizes(ids).tolist()
    assert corpus.avg_cells_per_window() == cold.avg_cells_per_window()
    stats, expected = corpus.memory_stats(), cold.memory_stats()
    for key in ("entities", "total_bins"):
        assert stats[key] == expected[key], key
    assert stats["flat_live"] == int(corpus.history_sizes(ids).sum())
    assert stats["flat_live"] <= stats["flat_entries"]


def _sequence(seed: int, storage: str, tmp_path) -> int:
    """Run one seeded op sequence, checking after every step; returns how
    many steps ran a compaction (evidence the sequence moved rows)."""
    rng = random.Random(seed)
    histories = {f"e{k}": _history(f"e{k}", rng) for k in range(6)}
    corpus = HistoryCorpus(histories, LEVEL)
    spills = iter(range(1000))

    def spill(target: HistoryCorpus) -> None:
        if storage == "disk":
            target.spill(tmp_path / f"spill{next(spills)}", chunk_rows=8)

    spill(corpus)
    _check(corpus, histories)
    newcomers = iter(range(100, 1000))
    compactions = 0
    for _ in range(14):
        step = rng.choice(STEPS)
        allocated = corpus.memory_stats()["flat_entries"]
        if step == "grow":
            for entity_id in rng.sample(sorted(histories), rng.randrange(1, 4)):
                histories[entity_id].extend(*_columns(rng, rng.randrange(1, 4)))
            corpus.refresh()
        elif step == "arrive":
            entity_id = f"n{next(newcomers)}"
            histories[entity_id] = _history(entity_id, rng)
            corpus.refresh()
        elif step == "retire" and len(histories) > 3:
            for entity_id in rng.sample(sorted(histories), rng.randrange(1, 3)):
                del histories[entity_id]
            corpus.refresh()
        elif step == "stale":
            # Retired, then re-observed before the refresh: the newcomer
            # starts at version 0 again, which only the stale mark tells.
            entity_id = rng.choice(sorted(histories))
            del histories[entity_id]
            corpus.mark_stale([entity_id, "never-held"])
            histories[entity_id] = _history(entity_id, rng)
            assert entity_id in corpus.refresh().dirty_entities
        elif step == "restore":
            state = corpus.checkpoint()
            saved = _unpack_histories(_pack_histories(histories))
            victim = rng.choice(sorted(histories))
            histories[victim].extend(*_columns(rng, 2))
            del histories[rng.choice(sorted(set(histories) - {victim}))]
            corpus.refresh()
            _check(corpus, histories)
            histories.clear()
            histories.update(saved)
            corpus.restore(state)
        elif step == "snapshot":
            packed = pickle.loads(pickle.dumps(
                (_pack_histories(histories), _pack_corpus(corpus.checkpoint()))
            ))
            histories = _unpack_histories(packed[0])
            corpus = HistoryCorpus._restored(histories, _unpack_corpus(packed[1]))
            spill(corpus)
        else:
            assert corpus.refresh().dirty_entities == ()
        stats = corpus.memory_stats()
        compactions += stats["flat_entries"] < allocated
        _check(corpus, histories)
    assert corpus.storage == storage
    return compactions


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_residency_columns_read_like_a_cold_corpus(storage, tmp_path):
    compactions = sum(
        _sequence(seed, storage, tmp_path / str(seed)) for seed in range(12)
    )
    assert compactions > 0  # not vacuous: rows were rebased and packed
