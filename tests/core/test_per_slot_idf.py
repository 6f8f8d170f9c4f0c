"""IDF per df slot, and the other values a corpus derives instead of
storing.

A bin's IDF depends only on its document-frequency slot and the corpus
size, so the corpus keeps one value per slot in RAM and the flat columns
are ``cells`` / ``slots`` / ``keys``.  The populated-window count
behind the block-size density check is kept by ``refresh()`` rather than
walked per dispatch, and never captured.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.store.columns import COLUMNS


def _observe(linker, rounds, entities=range(12)):
    for round_index in rounds:
        for side, jitter in (("left", 0.0), ("right", 1.1e-4)):
            linker.observe(side, [
                Record(
                    f"e{i}",
                    37.6 + (i % 4) * 0.01 + jitter,
                    -122.4 + (i // 4) * 0.01 + jitter,
                    round_index * 3600.0 + (i * 7) % 3500 + 10.0,
                )
                for i in entities
            ])


def _storage(storage, directory):
    if storage == "memory":
        return {}
    return {"storage": "disk", "store_dir": directory, "store_chunk_rows": 8}


def test_the_flats_are_three_columns_and_idf_a_slot_lookup():
    assert list(COLUMNS) == ["cells", "slots", "keys"]
    linker = StreamingLinker(0.0)
    _observe(linker, range(2))
    linker.relink()
    corpus = linker._corpora["left"]
    arrays = corpus.arrays()
    # Readers of the per-entry view (the kernel parity suite compares it
    # with the scalar oracle) see the slot values gathered through keys.
    assert np.array_equal(arrays.idf, arrays.idf_by_slot[arrays.keys])
    assert len(arrays.idf_by_slot) == corpus.memory_stats()["df_slots"]
    assert "idf_by_slot" not in corpus.checkpoint()


# ----------------------------------------------------------------------
# the density check reads a count, not a walk
# ----------------------------------------------------------------------
def _check_populated(linker):
    for corpus in linker._corpora.values():
        if corpus is None:
            continue
        walk = sum(len(corpus.window_index(e)) for e in corpus._row_of)
        assert corpus._populated == walk
        expected = corpus._total_bins / walk if walk else 0.0
        assert corpus.avg_cells_per_window() == expected


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_the_populated_window_count_equals_the_walk(
    tmp_path, storage, seed, relink_failures
):
    rng = random.Random(seed)
    linker = StreamingLinker(0.0, **_storage(storage, tmp_path / "store"))
    clock = 0.0
    for step in range(14):
        op = rng.choice(["observe", "observe", "retire", "relink", "fail", "restore"])
        cold = linker._corpora["left"] is None
        if op == "observe" or cold:
            clock += rng.choice([60.0, 900.0, 3600.0])
            for side in ("left", "right"):
                entities = rng.sample(range(10), rng.randint(1, 6))
                linker.observe(side, [
                    Record(
                        f"e{i}",
                        37.6 + rng.randint(0, 3) * 0.01,
                        -122.4 + rng.randint(0, 3) * 0.01,
                        clock + i,
                    )
                    for i in entities
                ])
            if cold:
                linker.relink()
        elif op == "retire":
            side = rng.choice(["left", "right"])
            held = sorted(linker._sides[side])
            if len(held) > 2:
                linker.retire(side, rng.sample(held, 1))
        elif op == "relink":
            linker.relink()
        elif op == "fail":
            linker.observe("left", [Record("e3", 37.65, -122.37, clock + 30.0)])
            point = rng.choice(["after-store", "matching", "threshold"])
            with relink_failures(point), pytest.raises(relink_failures.Boom):
                linker.relink()
        else:
            directory = tmp_path / f"snap{step}"
            linker.save(directory)
            linker = StreamingLinker.restore(
                directory, strict=True, **_storage(storage, tmp_path / f"store{step}")
            )
        _check_populated(linker)
