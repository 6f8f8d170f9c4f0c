"""The corpus flat columns, declared once, and their two homes.

Internal (no ``__all__``, like :mod:`repro.store.durable`).  The batch
kernel reads a corpus as parallel flat columns; *where* they live is not
part of the algorithm.  :class:`~repro.core.corpus.HistoryCorpus` decides
only **what** changes — the rows a delta appends, the gather order of a
compaction and the lookup that gather renumbers a column through (the
df-slot recycling of an eviction) — and one of two backends does it:

* :class:`MemoryColumns` — plain arrays on the heap; every operation is a
  single whole-column numpy pass;
* :class:`DiskColumns` — a :class:`~repro.store.chunks.ChunkedColumnStore`
  read back as read-only memory maps; a gather streams chunk by chunk
  straight from the maps into a fresh generation of every column, so
  the heap holds no column copy whatever the column length.  The store
  is the process's scratch space, not a durable copy: it rewinds in-process and
  has no crash protocol (no fsync, no manifest) — a restart re-spills
  from the linker's snapshot + event log.  Each operation is one
  all-or-nothing step
  (:meth:`~repro.store.chunks.ChunkedColumnStore.operation`): however
  many columns it writes, an operation that fails changes none of them.

Both owe the same contract (``tests/store/test_column_backends.py``): the
same sequence of operations yields bitwise-equal :meth:`column` contents,
a ``gather`` whose ``keys_remap`` cannot renumber leaves the previous
contents current, and ``restore(checkpoint())`` rewinds any number of
times.

>>> flats = MemoryColumns()
>>> flats.append({"cells": [7, 9, 8], "slots": [0, 2, 1], "keys": [0, 1, 0]})
>>> flats.gather(np.array([1, 0]), keys_remap=np.array([6, 5]))
>>> flats.column("cells").tolist(), flats.column("keys").tolist()
([9, 7], [5, 6])
>>> flats.storage, flats.resident_bytes
('memory', 48)
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from .chunks import DEFAULT_CHUNK_ROWS, ChunkedColumnStore

#: Every flat column and its dtype — the one place they are listed.  All
#: are parallel over the (entity, window, cell) bins of a corpus.  IDF is
#: not among them: it depends only on a bin's df slot and the corpus
#: size, so the corpus keeps one value per slot in RAM instead.
COLUMNS: Dict[str, np.dtype] = {
    "cells": np.dtype(np.uint64),  # cell ids
    "slots": np.dtype(np.int64),  # rows of the corpus CellTable
    "keys": np.dtype(np.int64),  # document-frequency slots
}


class MemoryColumns:
    """The flat columns as heap arrays (replaced, never mutated, so a
    capture holds them by reference)."""

    storage = "memory"

    def __init__(self) -> None:
        self._columns = {
            name: np.empty(0, dtype=dtype) for name, dtype in COLUMNS.items()
        }

    def column(self, name: str) -> np.ndarray:
        """One whole column."""
        return self._columns[name]

    def append(self, rows_by_name: Mapping[str, Sequence]) -> None:
        """Append rows to the named columns."""
        for name, rows in rows_by_name.items():
            self._columns[name] = np.concatenate(
                [self._columns[name], np.asarray(rows, dtype=COLUMNS[name])]
            )

    def gather(
        self, order: np.ndarray, keys_remap: Optional[np.ndarray] = None
    ) -> None:
        """Every column becomes ``column[order]`` (compaction), and
        ``keys`` becomes ``keys_remap[keys[order]]`` when a remap is
        given (the df-slot renumbering of an eviction)."""
        gathered = {name: column[order] for name, column in self._columns.items()}
        if keys_remap is not None:
            gathered["keys"] = np.asarray(
                keys_remap[gathered["keys"]], dtype=COLUMNS["keys"]
            )
        self._columns = gathered

    def checkpoint(self) -> Dict[str, object]:
        """The columns, for :meth:`restore`; pickles as-is."""
        return {"columns": dict(self._columns)}

    def restore(self, state: Dict[str, object]) -> None:
        """Adopt a capture's columns — either backend's: a disk capture
        carries its (memmapped, pickled-by-value) columns too."""
        self._columns = dict(state["columns"])

    @property
    def resident_bytes(self) -> int:
        """RAM the columns occupy: all of them."""
        return sum(column.nbytes for column in self._columns.values())


class DiskColumns:
    """The flat columns spilled out of core under ``directory``, seeded
    from another backend's current contents."""

    storage = "disk"

    def __init__(
        self,
        directory: Path,
        source: MemoryColumns,
        *,
        chunk_rows: Optional[int] = None,
    ) -> None:
        self._store = ChunkedColumnStore.create(
            directory,
            chunk_rows=DEFAULT_CHUNK_ROWS if chunk_rows is None else chunk_rows,
        )
        for name in COLUMNS:
            self._store.put(name, source.column(name))

    def column(self, name: str) -> np.ndarray:
        """One whole column, read-only and memory-mapped (the store
        re-maps a column only after its bytes changed)."""
        return self._store.column(name)

    def append(self, rows_by_name: Mapping[str, Sequence]) -> None:
        """Append rows to the named columns' files, all or none of them
        (chunks are written once; after a rewind the rows land where the
        rolled-back ones did)."""
        with self._store.operation():
            for name, rows in rows_by_name.items():
                self._store.extend(
                    name,
                    np.asarray(rows, dtype=COLUMNS[name]),
                    self._store.rows(name),
                )

    def gather(
        self, order: np.ndarray, keys_remap: Optional[np.ndarray] = None
    ) -> None:
        """Stream ``column[order]`` into a fresh generation of every
        column, all or none of them — each output chunk fancy-indexes the
        source memmap, touching only the pages it needs, and ``keys``
        chunks pass through ``keys_remap`` when one is given."""
        step = self._store.chunk_rows
        with self._store.operation():
            for name, dtype in COLUMNS.items():
                source = self._store.column(name)
                chunks = (
                    source[order[start : start + step]]
                    for start in range(0, len(order), step)
                )
                if name == "keys" and keys_remap is not None:
                    chunks = (keys_remap[chunk] for chunk in chunks)
                self._store.rewrite(name, dtype, chunks)

    def checkpoint(self) -> Dict[str, object]:
        """The store's column table (cutting it prunes generation files
        no rewind can reach any more) plus the live views, so the capture
        restores into a memory backend as well."""
        return {
            "store": self._store.checkpoint(),
            "columns": {name: self._store.column(name) for name in COLUMNS},
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Rewind the store to one of *its own* captures."""
        self._store.restore(state["store"])

    @property
    def resident_bytes(self) -> int:
        """Heap bytes the columns occupy: none — the memmapped columns
        live in the page cache, and a gather holds one output chunk at a
        time inside the store's write."""
        return 0


#: Either home of the flat columns — what a corpus holds.
FlatColumns = Union[MemoryColumns, DiskColumns]
