"""Unit tests for the chunked on-disk column store and the Hilbert key."""

from __future__ import annotations

import numpy as np
import pytest

from repro.store import ChunkedColumnStore, hilbert_index, hilbert_key
from repro.geo.cell import MAX_LEVEL, CellId


@pytest.fixture()
def store(tmp_path):
    return ChunkedColumnStore.create(tmp_path / "store", chunk_rows=8)


def test_round_trip_per_dtype(store):
    columns = {
        "cells": np.arange(37, dtype=np.uint64) * 3,
        "slots": np.linspace(-5.0, 5.0, 37).astype(np.float64),
        "keys": np.arange(37, dtype=np.int64) - 18,
    }
    for name, array in columns.items():
        store.put(name, array)
    for name, array in columns.items():
        view = store.column(name)
        assert view.dtype == array.dtype
        np.testing.assert_array_equal(np.asarray(view), array)
    assert sorted(store.names()) == sorted(columns)
    # 37 rows at chunk_rows=8 -> 5 logical chunks.
    assert store.num_chunks("cells") == 5


def test_column_is_one_contiguous_read_only_view(store):
    data = np.arange(20, dtype=np.float64)
    store.put("slots", data)
    view = store.column("slots")
    # Kernels gather with absolute-offset fancy indexing across chunk
    # boundaries; a per-chunk file layout would break this.
    np.testing.assert_array_equal(view[[0, 9, 19]], data[[0, 9, 19]])
    with pytest.raises((ValueError, TypeError)):
        view[0] = 99.0


def test_extend_appends_and_truncates_to_start(store):
    store.put("cells", np.arange(10, dtype=np.uint64))
    store.extend("cells", np.arange(100, 105, dtype=np.uint64), start=10)
    np.testing.assert_array_equal(
        np.asarray(store.column("cells")),
        np.concatenate([np.arange(10), np.arange(100, 105)]).astype(np.uint64),
    )
    # Re-extending at an interior start discards what followed it first
    # (the transactional-relink rewind shape).
    store.extend("cells", np.asarray([7, 8], dtype=np.uint64), start=4)
    np.testing.assert_array_equal(
        np.asarray(store.column("cells")),
        np.asarray([0, 1, 2, 3, 7, 8], dtype=np.uint64),
    )


def test_extend_rejects_gap(store):
    store.put("cells", np.arange(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        store.extend("cells", np.arange(2, dtype=np.uint64), start=9)


def test_generation_rewrite_is_atomic_and_pruned(store):
    store.put("keys", np.arange(16, dtype=np.int64))
    first_gen = store.generation("keys")
    writer = store.rewriter("keys", np.int64)
    writer.append(np.arange(100, 108, dtype=np.int64))
    # Uncommitted rewrite is invisible.
    np.testing.assert_array_equal(
        np.asarray(store.column("keys")), np.arange(16, dtype=np.int64)
    )
    writer.commit()
    assert store.generation("keys") == first_gen + 1
    np.testing.assert_array_equal(
        np.asarray(store.column("keys")), np.arange(100, 108, dtype=np.int64)
    )
    # The superseded generation file survives until the next checkpoint
    # (a rollback may still need it), then is pruned.
    assert store.column_path("keys", first_gen).exists()
    store.checkpoint()
    assert not store.column_path("keys", first_gen).exists()


def test_aborted_rewrite_leaves_no_trace(store):
    store.put("keys", np.arange(4, dtype=np.int64))
    writer = store.rewriter("keys", np.int64)
    writer.append(np.arange(2, dtype=np.int64))
    writer.abort()
    np.testing.assert_array_equal(
        np.asarray(store.column("keys")), np.arange(4, dtype=np.int64)
    )
    assert not store.column_path("keys", store.generation("keys") + 1).exists()


def test_checkpoint_restore_rewinds_appends(store):
    store.put("cells", np.arange(12, dtype=np.uint64))
    state = store.checkpoint()
    store.extend("cells", np.arange(50, 60, dtype=np.uint64), start=12)
    assert store.rows("cells") == 22
    store.restore(state)
    assert store.rows("cells") == 12
    np.testing.assert_array_equal(
        np.asarray(store.column("cells")), np.arange(12, dtype=np.uint64)
    )


def test_create_sweeps_what_an_earlier_store_left(tmp_path):
    """The store is scratch: a reused directory's column files, and the
    manifest older versions wrote, are litter — never read back."""
    directory = tmp_path / "store"
    ChunkedColumnStore.create(directory, chunk_rows=8).put(
        "cells", np.arange(19, dtype=np.uint64)
    )
    (directory / "store.json").write_text("{not json")
    (directory / "notes.txt").write_text("kept")
    store = ChunkedColumnStore.create(directory, chunk_rows=8)
    assert store.names() == ()
    assert sorted(path.name for path in directory.iterdir()) == ["notes.txt"]


class TestHilbert:
    def test_order_three_is_a_bijection(self):
        side = 1 << 3
        seen = {
            hilbert_index(3, i, j) for i in range(side) for j in range(side)
        }
        assert seen == set(range(side * side))

    def test_adjacent_curve_positions_are_grid_neighbours(self):
        side = 1 << 3
        by_index = {
            hilbert_index(3, i, j): (i, j)
            for i in range(side)
            for j in range(side)
        }
        for d in range(side * side - 1):
            (i1, j1), (i2, j2) = by_index[d], by_index[d + 1]
            assert abs(i1 - i2) + abs(j1 - j2) == 1

    def test_hilbert_key_orders_by_face_first(self):
        cell = CellId.from_degrees(37.77, -122.42, MAX_LEVEL)
        key = hilbert_key(cell.id)
        assert key >> (2 * MAX_LEVEL) == cell.to_face_ij()[0]
