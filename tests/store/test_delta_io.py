"""Disk-backed flats I/O follows the delta.

A corpus operation on disk — append a delta, compact, remap df slots —
writes and fsyncs each column file it changes, then replaces the store
manifest once, naming all of them.  The operation is all-or-nothing: an
error inside it leaves both the manifest file and the live column table
where they were.  Pruning superseded generations is bookkeeping, so a
relink lists no directory.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import repro.store.chunks as chunks
from repro.core.retention import SlidingWindowRetention
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.store import ChunkedColumnStore
from repro.store.columns import COLUMNS, DiskColumns, MemoryColumns

CHUNK_ROWS = 8


def _rows(start, count):
    span = np.arange(start, start + count)
    return {"cells": (span * 3).astype(np.uint64), "slots": span % 7, "keys": span % 5}


def _table(store):
    """Every column's rows and generation, as the store names them."""
    return {name: (store.rows(name), store.generation(name)) for name in store.names()}


def _contents(flats):
    return {name: np.asarray(flats.column(name)).tobytes() for name in COLUMNS}


class _Injected(RuntimeError):
    """The failure of the operation's second column write."""


def _fail_second_call(original):
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise _Injected("second column write")
        return original(*args, **kwargs)

    return wrapper


OPERATIONS = {
    "append": ("extend", lambda flats: flats.append(_rows(100, 9))),
    "gather": ("rewrite", lambda flats: flats.gather(np.arange(21)[::-2])),
}


@pytest.mark.parametrize("operation", list(OPERATIONS))
def test_a_failed_operation_commits_no_column(tmp_path, monkeypatch, operation):
    method, run = OPERATIONS[operation]
    directory = tmp_path / "store"
    flats = DiskColumns(directory, MemoryColumns(), chunk_rows=CHUNK_ROWS)
    flats.append(_rows(0, 21))
    twin = MemoryColumns()
    twin.append(_rows(0, 21))
    before, contents = _table(flats._store), _contents(flats)
    assert set(before) == set(COLUMNS)

    original = getattr(ChunkedColumnStore, method)
    monkeypatch.setattr(ChunkedColumnStore, method, _fail_second_call(original))
    with pytest.raises(_Injected):
        run(flats)
    monkeypatch.undo()
    # The first column's write happened; no manifest names it.
    assert _table(ChunkedColumnStore.open(directory)) == before
    assert _table(flats._store) == before
    assert _contents(flats) == contents
    # The backend carries on as if the operation had never started.
    run(flats)
    run(twin)
    assert _contents(flats) == _contents(twin)
    assert _table(ChunkedColumnStore.open(directory)) == _table(flats._store)


def test_a_direct_store_write_still_commits_itself(tmp_path):
    store = ChunkedColumnStore.create(tmp_path / "store", chunk_rows=CHUNK_ROWS)
    store.put("cells", np.arange(5, dtype=np.uint64))
    store.extend("cells", np.arange(3, dtype=np.uint64), 5)
    assert _table(ChunkedColumnStore.open(tmp_path / "store")) == {"cells": (8, 0)}


def _round(linker, round_index):
    """A fresh set of ids every round: the sliding window retires the
    ids of two rounds ago, and with them bins no survivor holds."""
    for side, jitter in (("left", 0.0), ("right", 1.1e-4)):
        linker.observe(side, [
            Record(
                f"r{round_index}e{i}",
                37.6 + (i % 5) * 0.01 + jitter,
                -122.4 + (i // 5) * 0.01 + jitter,
                round_index * 3600.0 + (i * 7) % 3500 + 10.0,
            )
            for i in range(14)
        ])


def _counting(original, seen):
    def wrapper(*args, **kwargs):
        seen.append(args[0])
        return original(*args, **kwargs)

    return wrapper


def _listing(*args, **kwargs):
    raise AssertionError("a relink listed a directory")


def test_an_evicting_disk_relink_commits_once_per_operation(tmp_path, monkeypatch):
    linker = StreamingLinker(
        0.0,
        retention=SlidingWindowRetention(2),
        storage="disk",
        store_dir=tmp_path / "store",
        store_chunk_rows=CHUNK_ROWS,
        store_cache_chunks=2,
    )
    for round_index in range(4):
        _round(linker, round_index)
        linker.relink()
    _round(linker, 4)

    replaces, fsyncs = [], []
    monkeypatch.setattr(chunks, "replace_file", _counting(chunks.replace_file, replaces))
    monkeypatch.setattr(os, "fsync", _counting(os.fsync, fsyncs))
    for name in ("glob", "rglob", "iterdir"):
        monkeypatch.setattr(Path, name, _listing)
    monkeypatch.setattr(os, "scandir", _listing)
    monkeypatch.setattr(os, "listdir", _listing)
    linker.relink()
    monkeypatch.undo()

    stats = linker.last_relink
    assert stats.evicted_left > 0 and stats.evicted_right > 0
    # Per side: one commit for the appended delta, one for the
    # compaction, one for the df-slot remap.
    sides = [path.parent.name for path in replaces]
    assert sorted(sides) == ["left"] * 3 + ["right"] * 3
    # Per side: three appended column files, three compacted generations
    # and one remapped one, plus a file and a directory fsync per commit.
    assert len(fsyncs) <= 2 * (3 + 3 + 1 + 3 * 2)
