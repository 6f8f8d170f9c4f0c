"""IDF per df slot, and the other values a corpus derives instead of
storing.

A bin's IDF depends only on its document-frequency slot and the corpus
size, so the corpus keeps one value per slot in RAM and the flat columns
are ``cells`` / ``slots`` / ``keys``.  Snapshots written while IDF was a
fourth flat column still restore: the column is dropped and the values
re-derived, so the restored linker relinks exactly like its writer.
The populated-window count behind the block-size density check is kept
by ``refresh()`` rather than walked per dispatch, and never captured.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.store import SNAPSHOT_FORMAT
from repro.store.columns import COLUMNS
from repro.store.snapshot import write_snapshot


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


def _four_column(capture):
    """A corpus capture as it was written while IDF was a flat column."""
    arrays = capture["flats"]["columns"]
    counts = capture["df_counts"][np.asarray(arrays["keys"])]
    idf = math.log(capture["size"]) - np.log(np.maximum(counts, 1.0))
    flats = dict(capture["flats"], columns={**arrays, "idf": idf})
    if "store" in flats:
        store = flats["store"]
        meta = {"dtype": "<f8", "rows": len(idf), "generation": 1, "epoch": 0}
        flats["store"] = dict(store, columns={**store["columns"], "idf": meta})
    return dict(capture, flats=flats)


@pytest.mark.parametrize("reader", ["memory", "disk"])
@pytest.mark.parametrize("writer_storage", ["memory", "disk"])
def test_a_four_column_snapshot_relinks_exactly(tmp_path, writer_storage, reader):
    assert SNAPSHOT_FORMAT == 4
    writer = StreamingLinker(0.0, **_storage(writer_storage, tmp_path / "writer"))
    _observe(writer, range(3))
    writer.relink()
    state = writer.checkpoint()
    cache = state.pop("score_cache")
    state["corpora"] = {
        side: _four_column(capture) for side, capture in state["corpora"].items()
    }
    if writer_storage == "disk":
        assert "idf" in state["corpora"]["left"]["flats"]["store"]["columns"]
    write_snapshot(
        tmp_path / "snaps",
        {"state": state, "score_cache": cache},
        watermark=writer.watermark,
    )

    restored = StreamingLinker.restore(
        tmp_path / "snaps", strict=True, **_storage(reader, tmp_path / "reader")
    )
    for side in ("left", "right"):
        corpus = restored._corpora[side]
        assert corpus.storage == reader
        assert set(corpus.checkpoint()["flats"]["columns"]) == set(COLUMNS)
    for subject in (writer, restored):
        # Three entities move on, one of them into another's bin: shared
        # document frequencies drift.
        _observe(subject, [3], entities=range(3))
        subject.observe("left", [Record("e2", 37.63, -122.4, 10.0)])
    expected, resumed = writer.relink(), restored.relink()
    assert writer.last_relink.idf_invalidated > 0
    assert dict(resumed.links) == dict(expected.links)
    assert resumed.link_scores == expected.link_scores
    assert restored.last_relink == writer.last_relink
    assert (restored.score_cache.hits, restored.score_cache.misses) == (
        writer.score_cache.hits,
        writer.score_cache.misses,
    )
    residency = "flat_resident_bytes"
    assert {
        key: value
        for key, value in restored.memory_stats().items()
        if writer_storage == reader or not key.endswith(residency)
    } == {
        key: value
        for key, value in writer.memory_stats().items()
        if writer_storage == reader or not key.endswith(residency)
    }

    cold = StreamingLinker(0.0)
    _observe(cold, range(3))
    _observe(cold, [3], entities=range(3))
    cold.observe("left", [Record("e2", 37.63, -122.4, 10.0)])
    reference = cold.relink()
    for report in (expected, resumed):
        assert dict(report.links) == dict(reference.links)
        assert report.link_scores == reference.link_scores


# ----------------------------------------------------------------------
# the density check reads a count, not a walk
# ----------------------------------------------------------------------
def _check_populated(linker):
    for corpus in linker._corpora.values():
        if corpus is None:
            continue
        walk = sum(len(held) for held in corpus._window_index.values())
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
