"""Chunked on-disk column store for the corpus flat array views.

The batch kernel (:mod:`repro.core.kernels`) gathers from three parallel
flat columns — cell ids, geometry slots and df-slot keys — via
absolute-offset fancy indexing, so each column must stay *one*
contiguous array.  :class:`ChunkedColumnStore` therefore keeps one
binary file per column and treats chunks as a **logical** unit: fixed
``chunk_rows`` spans that are written once (append or whole-column
generation rewrite, never patched in place) and read back as
read-only arrays over memory maps, so the OS page cache — not the
Python heap — holds whatever the kernel touches and a corpus can exceed
the RAM budget.

A compaction (with its df-slot remap) never materialises a whole
column either: it streams each output chunk, gathered from the maps,
into a fresh generation (:meth:`ChunkedColumnStore.rewrite`).

The store is **scratch**, private to the process that created it: the
column table (each column's dtype, row count and generation) lives in
memory only, nothing is fsynced, and no later process reads the
directory back — a restart rebuilds the corpus from the linker's
snapshot + event log (:mod:`repro.store.snapshot`,
:mod:`repro.store.eventlog`) and re-spills into a store
:meth:`~ChunkedColumnStore.create` starts afresh.  What the running
process does need is kept:

* column data lands in ``<name>.g<generation>.col`` files; a rewrite
  bumps the generation and leaves the old file on disk, so a capture
  holding the old mapping by reference stays valid;
* :meth:`ChunkedColumnStore.operation` makes a group of writes (a corpus
  append touches every column, a compaction rewrites every column)
  all-or-nothing: an error anywhere inside restores the column table it
  started from;
* :meth:`ChunkedColumnStore.checkpoint` / ``restore`` give the
  transactional-relink machinery the same rewind guarantee the in-RAM
  corpus has: restore repoints generations and truncates appended rows.
  The store records each generation file a rewrite supersedes or a
  rewind (or failed operation) abandons, and unlinks exactly those at
  the *next* checkpoint, after no rollback can need them — no directory
  listing per checkpoint.  :meth:`ChunkedColumnStore.create` sweeps
  whatever an earlier process left.
"""

from __future__ import annotations

import mmap
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, Set, Tuple

import numpy as np

__all__ = ["ChunkedColumnStore", "DEFAULT_CHUNK_ROWS"]

#: Rows per logical chunk — the I/O granule.
DEFAULT_CHUNK_ROWS = 16384


class _ColumnRewriter:
    """Streaming whole-column rewrite into the next generation file.

    ``append`` chunks in order, then ``commit`` — the new generation
    becomes visible only when the column table names it.
    """

    def __init__(
        self, store: "ChunkedColumnStore", name: str, dtype: np.dtype
    ) -> None:
        self._store = store
        self._name = name
        self._dtype = np.dtype(dtype)
        self._generation = store.generation(name) + 1
        self._path = store.column_path(name, self._generation)
        self._file = open(self._path, "wb")
        self._rows = 0

    def append(self, rows: np.ndarray) -> None:
        data = np.ascontiguousarray(rows, dtype=self._dtype)
        self._file.write(data.tobytes())
        self._rows += len(data)

    def commit(self) -> None:
        self._file.close()
        self._store._install_column(
            self._name, self._dtype, self._rows, self._generation
        )

    def abort(self) -> None:
        if not self._file.closed:
            self._file.close()
        if self._path.exists():
            self._path.unlink()


class ChunkedColumnStore:
    """One-file-per-column binary store with logical fixed-size chunks."""

    #: What :meth:`create` sweeps from a reused directory: column files,
    #: and the manifest older versions of this store wrote.
    _LITTER = ("*.col", "store.json")

    def __init__(self, directory: Path, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        self.directory = Path(directory)
        self.chunk_rows = int(chunk_rows)
        #: name -> {"dtype": str, "rows": int, "generation": int}
        self._columns: Dict[str, Dict[str, object]] = {}
        self._maps: Dict[str, Tuple[Tuple[int, int], np.ndarray]] = {}
        #: Generation files no current column names, for the next prune.
        self._stale: Set[Path] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, directory: Path, *, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> "ChunkedColumnStore":
        """Start an empty store, clearing any previous store files."""
        store = cls(directory, chunk_rows)  # validates before touching disk
        store.directory.mkdir(parents=True, exist_ok=True)
        for pattern in cls._LITTER:
            for stale in store.directory.glob(pattern):
                stale.unlink()
        return store

    def column_path(self, name: str, generation: int) -> Path:
        return self.directory / f"{name}.g{generation}.col"

    @contextmanager
    def operation(self) -> Iterator[None]:
        """Group writes into one all-or-nothing step: an error anywhere
        inside restores the column table the operation started from."""
        saved = {name: dict(meta) for name, meta in self._columns.items()}
        try:
            yield
        except BaseException:
            self._rewind_to(saved)
            raise

    def _rewind_to(self, kept: Dict[str, Dict[str, object]]) -> None:
        """Adopt ``kept`` as the column table: every current generation
        file it does not name is recorded for pruning, and every live map
        is dropped."""
        for name, meta in self._columns.items():
            if kept.get(name, {}).get("generation") != meta["generation"]:
                self._stale.add(self.column_path(name, int(meta["generation"])))
        self._columns = kept
        self._maps.clear()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, name: str, array: np.ndarray) -> None:
        """Write a whole column (a fresh generation)."""
        self.rewrite(
            name,
            array.dtype,
            (
                array[start : start + self.chunk_rows]
                for start in range(0, len(array), self.chunk_rows)
            ),
        )

    def rewrite(
        self, name: str, dtype: np.dtype, chunks: Iterable[np.ndarray]
    ) -> None:
        """Stream ``chunks`` into the column's next generation and commit;
        an error mid-stream aborts, leaving the previous one current."""
        writer = self.rewriter(name, dtype)
        try:
            for rows in chunks:
                writer.append(rows)
        except BaseException:
            writer.abort()
            raise
        writer.commit()

    def rewriter(self, name: str, dtype: np.dtype) -> _ColumnRewriter:
        """Streaming rewrite of one column into its next generation."""
        return _ColumnRewriter(self, name, dtype)

    def _install_column(
        self, name: str, dtype: np.dtype, rows: int, generation: int
    ) -> None:
        if name in self._columns:
            self._stale.add(self.column_path(name, self.generation(name)))
        self._columns[name] = {
            "dtype": np.dtype(dtype).str,
            "rows": int(rows),
            "generation": int(generation),
        }

    def extend(self, name: str, rows: np.ndarray, start: int) -> None:
        """Append ``rows`` at absolute row offset ``start``.

        ``start`` must not exceed the current length; rows at or past it
        are truncated first, so a re-extend after a transactional rewind
        lands exactly where the rolled-back one did.
        """
        meta = self._columns[name]
        if start > int(meta["rows"]):
            raise ValueError(
                f"extend of {name!r} starts at row {start} but the column "
                f"has only {meta['rows']} rows"
            )
        dtype = np.dtype(meta["dtype"])
        data = np.ascontiguousarray(rows, dtype=dtype)
        with open(self.column_path(name, int(meta["generation"])), "r+b") as handle:
            handle.truncate(start * dtype.itemsize)
            handle.seek(start * dtype.itemsize)
            handle.write(data.tobytes())
        meta["rows"] = start + len(data)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        return tuple(self._columns)

    def rows(self, name: str) -> int:
        return int(self._columns[name]["rows"])

    def generation(self, name: str) -> int:
        meta = self._columns.get(name)
        return -1 if meta is None else int(meta["generation"])

    def num_chunks(self, name: str) -> int:
        return -(-self.rows(name) // self.chunk_rows)

    def column(self, name: str) -> np.ndarray:
        """The whole column as one read-only array over a memory map of
        its file (empty columns get a plain empty array — maps cannot be
        zero-length)."""
        meta = self._columns[name]
        rows = int(meta["rows"])
        generation = int(meta["generation"])
        dtype = np.dtype(meta["dtype"])
        if rows == 0:
            return np.empty(0, dtype=dtype)
        # One live map per column, re-derived only when *its* file or
        # length moved: rewriting one column never re-maps the others.
        version = (generation, rows)
        cached = self._maps.get(name)
        if cached is None or cached[0] != version:
            # A plain ndarray, not an ``np.memmap``: slicing that subclass
            # costs ~10x a plain view's, and the corpus slices per entity.
            with open(self.column_path(name, generation), "rb") as handle:
                mapped = mmap.mmap(
                    handle.fileno(), rows * dtype.itemsize, access=mmap.ACCESS_READ
                )
            cached = self._maps[name] = (version, np.frombuffer(mapped, dtype=dtype))
        return cached[1]

    # ------------------------------------------------------------------
    # transactional rewind
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """Copy the column table for :meth:`restore`.

        Also the point where stale generation files are pruned: anything
        a previous (committed or rolled-back) transaction left behind is
        unreachable once a new checkpoint is cut.
        """
        self.prune_stale()
        return {"columns": {name: dict(meta) for name, meta in self._columns.items()}}

    def restore(self, state: Dict[str, object]) -> None:
        """Rewind to a :meth:`checkpoint`: repoint generations, truncate
        rows appended since, and forget columns created since."""
        restored: Dict[str, Dict[str, object]] = {
            name: dict(meta) for name, meta in state["columns"].items()
        }
        for name, meta in restored.items():
            dtype = np.dtype(str(meta["dtype"]))
            path = self.column_path(name, int(meta["generation"]))
            want = int(meta["rows"]) * dtype.itemsize
            if not path.exists():
                raise FileNotFoundError(
                    f"cannot rewind column {name!r}: {path} is gone"
                )
            if path.stat().st_size > want:
                os.truncate(path, want)
            elif path.stat().st_size < want:
                raise ValueError(
                    f"cannot rewind column {name!r}: {path} holds fewer "
                    f"bytes than the checkpoint recorded"
                )
        self._rewind_to(restored)

    def prune_stale(self) -> int:
        """Delete the generation files this store superseded or abandoned
        that the current column table does not reference (a later rewrite
        may have re-created one under the same name)."""
        live = {self.column_path(name, self.generation(name)) for name in self._columns}
        stale, self._stale = self._stale - live, set()
        for path in stale:
            path.unlink(missing_ok=True)
        return len(stale)

