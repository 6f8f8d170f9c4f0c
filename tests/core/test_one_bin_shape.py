"""One shape for a history's bins, structurally: the sorted ``(window,
cell, count)`` columns of :mod:`repro.core.history` are the store of
record, the corpus keeps its level-``l`` derivation of them in the flat
columns and nowhere else, and a rollback capture copies nothing that
grows with the bins.  The behavioural side is
``tests/core/test_history_columns.py`` and the parity gates.
"""

import ast
from pathlib import Path

import numpy as np

from repro.core import history as history_module
from repro.core.corpus import HistoryCorpus
from repro.core.history import (
    MobilityHistory,
    _pack_histories,
    _unpack_histories,
    build_histories,
    leaf_columns,
)
from repro.data import LocationDataset
from repro.temporal import Windowing

SRC = Path(__file__).resolve().parents[2] / "src"
RETIRED = {"_leaves", "_entity_bins", "_df_slot", "_bin_counts"}


def test_no_retired_bin_container_is_named_anywhere_under_src():
    named = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in RETIRED:
                named.add(f"{path.relative_to(SRC)}: {name}")
    assert not named


#: Names of per-entity structures: the corpus holds residency as columns
#: (an id -> row dict, row arrays, one directory table) instead, the
#: LSH index one bucket matrix per side, indexed by entity code, replaced
#: rather than written (no bucket dict, no placement lists, no journal),
#: and a dataset three sorted columns with entity bounds (no trace object
#: or dict of them).
PER_ENTITY = {
    "_Resident", "_window_index", "_slices", "_directories",
    "_placements", "_buckets", "_IndexJournal", "_touch_bucket", "_partners",
    "_Trace", "_traces", "_sorted_trace",
}


def _named(source):
    """Every class, function, attribute and variable name in ``source``."""
    return {
        getattr(node, "attr", None) or getattr(node, "id", None)
        or getattr(node, "name", None)
        for node in ast.walk(ast.parse(source))
    }


def test_no_per_entity_structure_is_named_under_src():
    named = {
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _named(path.read_text()) & PER_ENTITY
    }
    assert not named
    # The check has teeth: classes, functions, attributes and calls.
    assert _named(
        "class _Resident: pass\n"
        "class _IndexJournal: pass\n"
        "def _directories(): pass\n"
        "def _touch_bucket(): pass\n"
        "self._window_index = {}\n"
        "self._placements = {}\n"
        "self._buckets.get(0)\n"
        "self._slices()\n"
        "index._partners(placed, 0)\n"
        "class _Trace: pass\n"
        "def _sorted_trace(): pass\n"
        "self._traces = {}\n"
    ) >= PER_ENTITY


def test_leaf_columns_walks_no_window_or_cell():
    """Joining histories is array concatenation: its only loops run over
    the histories, the three column names and the four joined columns."""
    tree = ast.parse(Path(history_module.__file__).read_text())
    (function,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "leaf_columns"
    ]
    assert not [n for n in ast.walk(function) if isinstance(n, ast.While)]
    iterated = {
        ast.unparse(node.iter)
        for node in ast.walk(function)
        if isinstance(node, (ast.For, ast.comprehension))
    }
    assert iterated <= {"histories", "_COLUMNS.items()", "joined"}


def _base(column):
    """The array a view's memory belongs to (a column that owns its
    memory is its own base)."""
    while column.base is not None:
        column = column.base
    return column


def _side():
    dataset = LocationDataset.from_columns(
        ["a", "b", "a", "c", "b", "c", "c"],
        [
            [10.0, 20.0, 950.0, 30.0, 1900.0, 40.0, 2000.0],
            [37.70, 37.71, 37.72, 37.70, 37.74, 37.75, 37.76],
            [-122.40, -122.41, -122.42, -122.43, -122.44, -122.45, -122.46],
        ],
    )
    return build_histories(dataset, Windowing(0.0, 900.0), 14)


def _shared_read_only_bases(histories):
    """Each stored column's base, per column name, after asserting that
    the column is read-only and a view of it."""
    bases = {name: set() for name in history_module._COLUMNS}
    for history in histories.values():
        for name in bases:
            column = getattr(history, name)
            assert not column.flags.writeable and not column.flags.owndata
            bases[name].add(id(_base(column)))
    return bases


def test_a_bulk_build_adopts_read_only_slices_of_one_merge():
    """``build_histories`` copies no history's columns: all of them are
    read-only views of one base per column, the ingest's merge."""
    bases = _shared_read_only_bases(_side())
    assert [len(ids) for ids in bases.values()] == [1, 1, 1]


def test_the_constructor_copies_what_it_is_given():
    """``MobilityHistory(...)`` keeps copies: the caller's arrays stay
    writable, and writing them changes nothing stored."""
    windows = np.array([0, 1, 1], np.int64)
    cells = np.array([5, 7, 9], np.uint64)
    counts = np.array([1.0, 2.0, 1.0])
    history = MobilityHistory("x", Windowing(0.0, 900.0), 14, windows, cells, counts, 4)
    stored = [history._windows.copy(), history._cells.copy(), history._counts.copy()]
    for column in (windows, cells, counts):
        assert column.flags.writeable
        column[:] = 3
    for column, before in zip((history._windows, history._cells, history._counts), stored):
        assert not column.flags.writeable
        assert column.tobytes() == before.tobytes()


def test_a_restored_side_adopts_slices_of_the_unpacked_columns():
    """``_unpack_histories`` takes the ingest's path: every history's
    columns are read-only views of the one unpacked column of each name,
    and they read what was packed."""
    histories = _side()
    packed = _pack_histories(histories)
    restored = _unpack_histories(packed)
    bases = _shared_read_only_bases(restored)
    assert bases == {name: {id(_base(packed[name]))} for name in bases}
    for entity_id, history in histories.items():
        for name in bases:
            got = getattr(restored[entity_id], name)
            assert got.tobytes() == getattr(history, name).tobytes()


def _corpus(records_per_entity):
    windowing = Windowing(0.0, 900.0)
    histories = {}
    for k in range(6):
        stamps = np.arange(records_per_entity) * 900.0 + 10.0
        histories[f"e{k}"] = MobilityHistory.from_columns(
            f"e{k}",
            stamps,
            37.6 + 0.01 * ((np.arange(records_per_entity) + k) % 7),
            np.full(records_per_entity, -122.4),
            windowing,
            14,
        )
    corpus = HistoryCorpus(histories, 12)
    for entity in histories:
        corpus.bins_with_idf(entity)
    return corpus


def test_a_corpus_checkpoint_copies_nothing_that_grows_with_the_bins():
    """``checkpoint()`` copies nothing at all, however many bins the
    entities have: every container in the capture is the corpus' own
    object (the id -> row dict included), by reference."""
    for records in (4, 64):
        corpus = _corpus(records)
        assert corpus.memory_stats()["total_bins"] == 6 * records
        state = corpus.checkpoint()
        state.pop("flats")  # the backend's own capture: arrays by reference
        copied = {
            name
            for name, value in state.items()
            if isinstance(value, (dict, list, set, np.ndarray))
            and value is not getattr(corpus, "_" + name)
        }
        assert not copied
    assert all(
        column is corpus._flats.column(name)
        for name, column in corpus._flats.checkpoint()["columns"].items()
    )


def test_the_corpus_reads_histories_through_their_joined_columns():
    """The store of record is what the corpus derives from: its bins at
    the similarity level are the re-parented, de-duplicated columns."""
    corpus = _corpus(16)
    histories = list(corpus.histories().values())
    rows, windows, cells, _ = leaf_columns(histories)
    arrays = corpus.arrays()
    for row, history in enumerate(histories):
        index = corpus.window_index(history.entity_id)
        assert index.windows.tolist() == sorted(set(windows[rows == row].tolist()))
        flat = np.concatenate(
            [arrays.cells[o : o + c] for o, c in zip(index.offsets, index.counts)]
        )
        assert flat.tolist() == [
            cell for cells in history.bins(12).values() for cell in cells
        ]


#: Names of a store written in place behind an undo journal: the score
#: cache's records are replaced rather than written (no journal, no
#: rollback replay, no free list, no high-water mark).
WRITTEN_IN_PLACE = {"_Journal", "_rollback", "from_free", "_free", "_high"}


def test_no_undo_journal_or_free_list_is_named_under_src():
    named = {
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _named(path.read_text()) & WRITTEN_IN_PLACE
    }
    assert not named
    # The check has teeth: classes, functions, attributes and keywords.
    assert _named(
        "class _Journal: pass\n"
        "def _rollback(self, journal): pass\n"
        "self._free.extend(rows)\n"
        "start, self._high = self._high, 0\n"
        "journal.from_free.extend(reused)\n"
    ) >= WRITTEN_IN_PLACE
