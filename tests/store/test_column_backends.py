"""The flat-columns backend contract, over both implementations.

``repro.store.columns`` declares the corpus flat columns once and offers
a memory and a disk backend of the same four operations.  Whatever the
corpus asks of one it may ask of the other, with bitwise-equal results:
that is the "maintained answer == from-scratch answer" guarantee written
once instead of once per storage branch.

Also here, because they are the same boundary seen from outside: a
failed ``spill()`` leaves a working memory corpus, the linker validates
its store options up front, the store re-maps only the column it
rewrote, and ``repro.core`` never names the disk machinery.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core.corpus import HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.streaming import StreamingLinker
from repro.store import ChunkedColumnStore
from repro.store.columns import COLUMNS, DiskColumns, MemoryColumns
from repro.temporal import Windowing

CHUNK_ROWS = 8
COUNTS = np.array([4.0, 1.0, 0.0, 2.0, 7.0])


def _memory(tmp):
    return MemoryColumns()


def _disk(tmp):
    return DiskColumns(tmp / "store", MemoryColumns(), chunk_rows=CHUNK_ROWS)


BACKENDS = {"memory": _memory, "disk": _disk}


@pytest.fixture(params=list(BACKENDS))
def flats(request, tmp_path):
    return BACKENDS[request.param](tmp_path)


def _rows(start, count):
    span = np.arange(start, start + count)
    return {
        "cells": (span * 3).astype(np.uint64),
        "slots": (span % 7).tolist(),  # a plain list: the backend casts
        "keys": span % len(COUNTS),
    }


#: A df-slot remap, as the lookup a compaction's ``gather`` renumbers
#: ``keys`` through.
REMAP = np.array([3, 0, 4, 1, 2])


def _renumber(flats, lookup=REMAP):
    """Renumber ``keys`` in place: a gather in the identity order."""
    flats.gather(np.arange(len(flats.column("cells"))), keys_remap=lookup)


def _observe(flats):
    """Every column, by value: dtype and bytes."""
    columns = {name: np.asarray(flats.column(name)) for name in COLUMNS}
    return {name: (col.dtype.str, col.tobytes()) for name, col in columns.items()}


def _mutate(flats):
    """Every operation once more, so a rewind has all of them to undo."""
    flats.append(_rows(100, 9))
    _renumber(flats)
    _renumber(flats, (np.arange(len(COUNTS)) + 1) % len(COUNTS))
    flats.gather(np.arange(len(flats.column("cells")))[::-2])
    _renumber(flats)


def _script(flats):
    """append / gather (plain and renumbering) / checkpoint -> mutate ->
    restore (twice from the same capture) -> carry on; returns every
    observation."""
    seen = []
    flats.append(_rows(0, 21))  # 3 chunks on disk, the last one partial
    _renumber(flats)
    seen.append(_observe(flats))
    flats.gather(np.concatenate([np.arange(20, 10, -1), np.arange(0, 5)]))
    flats.append(_rows(40, 6))
    flats.gather(np.arange(20, -1, -3), keys_remap=REMAP)
    seen.append(_observe(flats))
    _renumber(flats)
    seen.append(_observe(flats))
    state = flats.checkpoint()
    for _ in range(2):
        _mutate(flats)
        seen.append(_observe(flats))
        flats.restore(state)
        seen.append(_observe(flats))
    flats.append(_rows(200, 11))  # lands where the rolled-back rows did
    _renumber(flats)
    _renumber(flats, np.full(len(COUNTS), 3))
    seen.append(_observe(flats))
    return seen


def test_the_same_script_yields_the_same_bytes_on_both_backends(tmp_path):
    memory = _script(_memory(tmp_path))
    disk = _script(_disk(tmp_path))
    assert memory == disk
    # Not vacuous: the columns hold what the script says, in the
    # declared dtypes, and both restores landed on the captured bytes.
    first = memory[0]
    assert first["cells"] == ("<u8", (np.arange(21) * 3).astype(np.uint64).tobytes())
    assert first["keys"] == ("<i8", REMAP[np.arange(21) % len(COUNTS)].tobytes())
    assert {name: dtype for name, (dtype, _) in first.items()} == {
        name: dtype.str for name, dtype in COLUMNS.items()
    }
    # The renumbering gather: rows picked by the order, keys through the
    # lookup, the other columns as they were.
    gathered = np.concatenate([np.arange(20, 10, -1), np.arange(0, 5)])
    order = np.arange(20, -1, -3)
    cells = np.concatenate([(gathered * 3), np.arange(40, 46) * 3])[order]
    keys = np.concatenate(
        [REMAP[gathered % len(COUNTS)], np.arange(40, 46) % len(COUNTS)]
    )[order]
    assert memory[1]["cells"] == ("<u8", cells.astype(np.uint64).tobytes())
    assert memory[1]["keys"] == ("<i8", REMAP[keys].tobytes())
    assert memory[4] == memory[2] and memory[6] == memory[2]
    assert memory[3] == memory[5] != memory[2]


def test_a_failed_renumbering_gather_changes_no_column(flats, tmp_path):
    """A lookup that cannot renumber every gathered key (here one past its
    end, in the second chunk) fails the whole gather: no column moves,
    although on disk ``cells`` and ``slots`` were already rewritten, and
    the next checkpoint leaves no stray generation behind."""
    flats.append(_rows(0, 21))
    before = _observe(flats)
    short = np.arange(len(COUNTS) - 1)  # key 4 has no new number
    order = np.arange(21)
    with pytest.raises(IndexError):
        flats.gather(order, keys_remap=short)
    assert _observe(flats) == before
    flats.checkpoint()
    if flats.storage == "disk":
        # No stray generation: one file per column.
        assert len(list((tmp_path / "store").glob("*.col"))) == len(COLUMNS)
    # ...and the backend still works.
    flats.gather(order[::-1], keys_remap=REMAP)
    assert np.array_equal(
        np.asarray(flats.column("keys")), REMAP[(order % len(COUNTS))[::-1]]
    )


def test_disk_columns_hold_no_heap_copy_of_the_flats(tmp_path):
    """The disk backend's heap ledger reads 0 through appends and
    renumbering gathers; the heap twin holds every byte."""
    flats = _disk(tmp_path)
    assert flats.resident_bytes == 0
    flats.append(_rows(0, 50 * CHUNK_ROWS))
    _renumber(flats)
    assert flats.resident_bytes == 0
    _mutate(flats)
    assert flats.resident_bytes == 0
    memory = _memory(tmp_path)
    memory.append(_rows(0, 50 * CHUNK_ROWS))
    _renumber(memory)
    assert memory.resident_bytes == sum(
        50 * CHUNK_ROWS * dtype.itemsize for dtype in COLUMNS.values()
    )


def test_a_disk_capture_restores_into_a_memory_backend(tmp_path):
    """Storage is not state: what a disk backend captured, a heap one
    adopts (the restart path — restore, then maybe spill again)."""
    disk = _disk(tmp_path)
    disk.append(_rows(0, 21))
    _renumber(disk)
    memory = MemoryColumns()
    memory.restore(disk.checkpoint())
    assert _observe(memory) == _observe(disk)


# ----------------------------------------------------------------------
# the store re-maps only what it rewrote
# ----------------------------------------------------------------------
def test_rewriting_one_column_does_not_remap_the_others(tmp_path):
    store = ChunkedColumnStore.create(tmp_path / "store", chunk_rows=CHUNK_ROWS)
    store.put("cells", np.arange(20, dtype=np.uint64))
    store.put("idf", np.linspace(0.0, 1.0, 20))
    cells, idf = store.column("cells"), store.column("idf")
    assert store.column("cells") is cells  # reading idf evicted nothing
    store.put("idf", np.linspace(1.0, 2.0, 20))
    assert store.column("idf") is not idf
    assert store.column("cells") is cells
    store.extend("cells", np.arange(3, dtype=np.uint64), 20)
    assert len(store.column("cells")) == 23
    assert store.column("idf") is store.column("idf")


# ----------------------------------------------------------------------
# a spill either happens or it does not
# ----------------------------------------------------------------------
WINDOWING = Windowing(0.0, 900.0)


def _histories(count=6):
    return {
        f"e{k}": MobilityHistory.from_columns(
            f"e{k}",
            np.array([10.0 + 900.0 * k, 4000.0]),
            np.array([37.6 + 0.01 * k, 37.7]),
            np.array([-122.4, -122.4 + 0.01 * k]),
            WINDOWING,
            12,
        )
        for k in range(count)
    }


def _views(corpus):
    arrays = corpus.arrays()
    views = {}
    for entity in sorted(corpus.entities):
        index = corpus.window_index(entity)
        views[entity] = [
            (
                int(window),
                np.asarray(arrays.cells[o : o + c]).tolist(),
                np.asarray(arrays.idf[o : o + c]).tolist(),
            )
            for window, o, c in zip(index.windows, index.offsets, index.counts)
        ]
    return views


@pytest.mark.parametrize(
    "options", [{"chunk_rows": -5}, {"chunk_rows": 0}]
)
def test_a_failed_spill_leaves_a_working_memory_corpus(tmp_path, options):
    histories = _histories()
    corpus = HistoryCorpus(histories, 12)
    with pytest.raises(ValueError, match="must be positive"):
        corpus.spill(tmp_path / "store", **options)
    assert corpus.storage == "memory"
    assert corpus.memory_stats()["flat_resident_bytes"] > 0
    # The next delta folds in as if nothing had been attempted...
    histories["e1"].extend(np.array([9000.0]), np.array([37.9]), np.array([-122.1]))
    del histories["e4"]
    corpus.refresh()
    assert _views(corpus) == _views(HistoryCorpus(histories, 12))
    # ...and a well-formed spill still goes through.
    corpus.spill(tmp_path / "store", chunk_rows=CHUNK_ROWS)
    assert corpus.storage == "disk"
    assert _views(corpus) == _views(HistoryCorpus(histories, 12))


@pytest.mark.parametrize(
    "options, named",
    [
        ({"store_chunk_rows": -5}, "store_chunk_rows"),
        ({"store_chunk_rows": 0, "store_cache_chunks": 0}, "store_chunk_rows"),
    ],
)
def test_the_linker_rejects_bad_store_options_at_construction(
    tmp_path, options, named
):
    with pytest.raises(ValueError, match=f"{named} must be positive"):
        StreamingLinker(0.0, storage="disk", store_dir=tmp_path, **options)


# ----------------------------------------------------------------------
# the boundary, structurally
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
_DISK_MACHINERY = {"memmap", "ChunkedColumnStore", "ChunkLRU"}


def _names(source):
    """Every identifier a module's *code* mentions (docstrings aside)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_core_never_names_the_disk_machinery():
    offenders = {
        path.name: sorted(_names(path.read_text()) & _DISK_MACHINERY)
        for path in sorted((SRC / "core").glob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}
    # The check has teeth: the one module that owns that machinery trips it.
    assert "ChunkedColumnStore" in _names((SRC / "store" / "columns.py").read_text())
    assert "memmap" in _names("import numpy as np\nx = np.memmap('f')\n")


def test_linkage_paths_never_name_the_signature_oracle():
    """One signature path: the pipeline, the streaming linker and the LSH
    index go through ``signature_matrix``.  The per-history Fig. 1
    formulation — ``build_signature`` / ``history_tree`` /
    ``dominating_cell`` over a ``TemporalCountTree`` per entity — lives
    test-side (``tests/fig1_oracle.py``), and no module of the package
    names any of it."""
    oracle = {
        "build_signature",
        "history_tree",
        "dominating_cell",
        "TemporalCountTree",
        "fig1_oracle",
    }
    offenders = {
        path.relative_to(SRC).as_posix(): sorted(_names(path.read_text()) & oracle)
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}
    assert "signature_matrix" in _names((SRC / "lsh" / "index.py").read_text())
    # The check has teeth: each spelling of a use is caught.
    assert oracle <= _names(
        "from fig1_oracle import build_signature, dominating_cell\n"
        "history_tree(history).dominating(0, 1)\n"
        "fig1_oracle.TemporalCountTree({})\n"
    )


def _lists_every_column(source):
    """True when some dict/list/tuple/set literal names all the columns."""
    return any(
        {
            node.value
            for node in ast.walk(container)
            if isinstance(node, ast.Constant)
        }
        >= set(COLUMNS)
        for container in ast.walk(ast.parse(source))
        if isinstance(container, (ast.Dict, ast.List, ast.Tuple, ast.Set))
    )


def test_the_column_list_is_declared_once():
    """The column names appear together, as a list, only in
    ``store/columns.py``; everything else asks that module."""
    listing = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if _lists_every_column(path.read_text())
    ]
    assert listing == ["store/columns.py"]
