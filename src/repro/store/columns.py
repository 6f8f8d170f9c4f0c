"""The corpus flat columns, declared once, and their two homes.

Internal (no ``__all__``, like :mod:`repro.store.durable`).  The batch
kernel reads a corpus as parallel flat columns; *where* they live is not
part of the algorithm.  :class:`~repro.core.corpus.HistoryCorpus` decides
only **what** changes — the rows a delta appends, the gather order of a
compaction, the function that re-derives one column from another — and
one of two backends does it:

* :class:`MemoryColumns` — plain arrays on the heap; every operation is a
  single whole-column numpy pass;
* :class:`DiskColumns` — a :class:`~repro.store.chunks.ChunkedColumnStore`
  read back through read-only memmaps; maintenance passes stream chunk
  by chunk through a :class:`~repro.store.chunks.ChunkLRU` into a fresh
  generation of exactly the columns they change, so resident memory stays
  at the cache bound whatever the column length.  Each operation is one
  store commit (:meth:`~repro.store.chunks.ChunkedColumnStore.operation`):
  however many columns it writes, one manifest replace names them all,
  and an operation that fails changes none of them.

Both owe the same contract (``tests/store/test_column_backends.py``): the
same sequence of operations yields bitwise-equal :meth:`column` contents,
a ``derive`` whose function raises leaves the previous contents current,
and ``restore(checkpoint())`` rewinds any number of times.

>>> flats = MemoryColumns()
>>> flats.append({"cells": [7, 9, 8], "slots": [0, 2, 1], "keys": [0, 1, 0]})
>>> flats.derive("keys", "keys", lambda keys: 1 - keys)
>>> flats.gather(np.array([2, 0]))
>>> flats.column("cells").tolist(), flats.column("keys").tolist()
([8, 7], [1, 1])
>>> flats.storage, flats.resident_bytes
('memory', 48)
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from .chunks import DEFAULT_CHUNK_ROWS, ChunkedColumnStore, ChunkLRU

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

    def gather(self, order: np.ndarray) -> None:
        """Every column becomes ``column[order]`` (compaction)."""
        self._columns = {
            name: column[order] for name, column in self._columns.items()
        }

    def derive(
        self, target: str, source: str, fn: Callable[[np.ndarray], np.ndarray]
    ) -> None:
        """``target`` becomes ``fn(source)`` (``target`` may be ``source``)."""
        self._columns[target] = np.asarray(
            fn(self._columns[source]), dtype=COLUMNS[target]
        )

    def checkpoint(self) -> Dict[str, object]:
        """The columns, for :meth:`restore`; pickles as-is."""
        return {"columns": dict(self._columns)}

    def restore(self, state: Dict[str, object]) -> None:
        """Adopt a capture's columns — either backend's: a disk capture
        carries its (memmapped, pickled-by-value) columns too.  Columns
        :data:`COLUMNS` does not declare (the ``idf`` of older captures)
        are dropped."""
        self._columns = {name: state["columns"][name] for name in COLUMNS}

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
        cache_chunks: int = 8,
    ) -> None:
        self._store = ChunkedColumnStore.create(
            directory,
            chunk_rows=DEFAULT_CHUNK_ROWS if chunk_rows is None else chunk_rows,
        )
        self._cache = ChunkLRU(self._store, cache_chunks)
        with self._store.operation():
            for name in COLUMNS:
                self._store.put(name, source.column(name))

    def column(self, name: str) -> np.ndarray:
        """One whole column as a read-only memmap (the store re-maps a
        column only after its bytes changed)."""
        return self._store.column(name)

    def append(self, rows_by_name: Mapping[str, Sequence]) -> None:
        """Append rows to the named columns' files, one commit for all
        of them (chunks are written once; after a rewind the rows land
        where the rolled-back ones did)."""
        with self._store.operation():
            for name, rows in rows_by_name.items():
                self._store.extend(
                    name,
                    np.asarray(rows, dtype=COLUMNS[name]),
                    self._store.rows(name),
                )

    def gather(self, order: np.ndarray) -> None:
        """Stream ``column[order]`` into a fresh generation of every
        column, one commit for all of them — each output chunk
        fancy-indexes the source memmap, touching only the pages it
        needs."""
        step = self._store.chunk_rows
        with self._store.operation():
            for name, dtype in COLUMNS.items():
                source = self._store.column(name)
                self._store.rewrite(
                    name,
                    dtype,
                    (
                        source[order[start : start + step]]
                        for start in range(0, len(order), step)
                    ),
                )

    def derive(
        self, target: str, source: str, fn: Callable[[np.ndarray], np.ndarray]
    ) -> None:
        """Stream ``source`` chunk by chunk through ``fn`` into a fresh
        generation of ``target``; if ``fn`` raises, the previous one
        stays current."""
        self._store.rewrite(
            target,
            COLUMNS[target],
            (fn(chunk) for _start, chunk in self._cache.iter_chunks(source)),
        )

    def checkpoint(self) -> Dict[str, object]:
        """The store manifest (cutting it prunes generation files no
        rewind can reach any more) plus the live views, so the capture
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
        """RAM the columns occupy: the chunk cache's copies (the
        memmapped columns live in the page cache, not the heap)."""
        return self._cache.resident_bytes


#: Either home of the flat columns — what a corpus holds.
FlatColumns = Union[MemoryColumns, DiskColumns]
