"""Chunked on-disk column store for the corpus flat array views.

The batch kernel (:mod:`repro.core.kernels`) gathers from four parallel
flat columns — cell ids, geometry slots, df-slot keys and IDFs — via
absolute-offset fancy indexing, so each column must stay *one*
contiguous array.  :class:`ChunkedColumnStore` therefore keeps one
binary file per column and treats chunks as a **logical** unit: fixed
``chunk_rows`` spans that are written once (append or whole-column
generation rewrite, never patched in place) and read back through
read-only :func:`numpy.memmap` views, so the OS page cache — not the
Python heap — holds whatever the kernel touches and a corpus can exceed
the RAM budget.

Maintenance passes (IDF re-derivation, compaction, df-slot remaps) never
materialise a whole column: they stream it chunk by chunk through a
:class:`ChunkLRU`, a small in-RAM cache of chunk copies with an
accountable ``resident_bytes`` bound — the ledger
``benchmarks/bench_out_of_core.py`` reports against the in-core
footprint.

Durability protocol (shared with :mod:`repro.store.snapshot`):

* column data lands in ``<name>.g<generation>.col`` files; a rewrite
  bumps the generation and leaves the old file on disk;
* the manifest (``store.json``) naming each column's dtype, row count
  and generation is replaced atomically
  (:func:`~repro.store.durable.replace_file`), so a crash mid-write
  leaves the previous manifest — and the files it points at — intact;
* :meth:`ChunkedColumnStore.checkpoint` / ``restore`` give the
  transactional-relink machinery the same rewind guarantee the in-RAM
  corpus has: restore repoints the manifest and truncates appended rows,
  and stale generation files are pruned only at the *next* checkpoint,
  after no rollback can need them.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from .durable import replace_file, write_file

__all__ = ["ChunkedColumnStore", "ChunkLRU", "DEFAULT_CHUNK_ROWS"]

#: Rows per logical chunk — the I/O and cache-accounting granule.
DEFAULT_CHUNK_ROWS = 16384


class _ColumnRewriter:
    """Streaming whole-column rewrite into the next generation file.

    ``append`` chunks in order, then ``commit`` — the new generation
    becomes visible only through the atomic manifest replace, so a crash
    mid-rewrite leaves the previous generation current.
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
        self._file.flush()
        os.fsync(self._file.fileno())
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

    MANIFEST = "store.json"
    FORMAT = 1

    def __init__(
        self,
        directory: Path,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        columns: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> None:
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        self.directory = Path(directory)
        self.chunk_rows = int(chunk_rows)
        #: name -> {"dtype": str, "rows": int, "generation": int}
        self._columns: Dict[str, Dict[str, object]] = columns or {}
        self._maps: Dict[str, Tuple[Tuple[int, int], np.ndarray]] = {}

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
        for stale in store.directory.glob("*.col"):
            stale.unlink()
        store._write_manifest()
        return store

    @classmethod
    def open(cls, directory: Path) -> "ChunkedColumnStore":
        """Open an existing store from its manifest."""
        directory = Path(directory)
        manifest_path = directory / cls.MANIFEST
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != cls.FORMAT:
            raise ValueError(
                f"unsupported store format {manifest.get('format')!r} "
                f"in {manifest_path} (expected {cls.FORMAT})"
            )
        return cls(directory, manifest["chunk_rows"], manifest["columns"])

    def column_path(self, name: str, generation: int) -> Path:
        return self.directory / f"{name}.g{generation}.col"

    def _write_manifest(self) -> None:
        payload = json.dumps(
            {
                "format": self.FORMAT,
                "chunk_rows": self.chunk_rows,
                "columns": self._columns,
            },
            indent=2,
            sort_keys=True,
        )
        replace_file(self.directory / self.MANIFEST, payload.encode())

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
        self._columns[name] = {
            "dtype": np.dtype(dtype).str,
            "rows": int(rows),
            "generation": int(generation),
        }
        self._write_manifest()

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
        path = self.column_path(name, int(meta["generation"]))
        with open(path, "r+b") as handle:
            handle.truncate(start * dtype.itemsize)
            handle.seek(start * dtype.itemsize)
            write_file(handle, data.tobytes())
        meta["rows"] = start + len(data)
        # Same-generation mutation: bump the epoch so chunk copies taken
        # before this extend (the partial tail chunk in particular) are
        # recognisably stale.
        meta["epoch"] = int(meta.get("epoch", 0)) + 1
        self._write_manifest()

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

    def version(self, name: str) -> Tuple[int, int]:
        """``(generation, epoch)`` — changes whenever column bytes may
        have changed (rewrite, extend, or transactional rewind)."""
        meta = self._columns.get(name)
        if meta is None:
            return (-1, -1)
        return (int(meta["generation"]), int(meta.get("epoch", 0)))

    def num_chunks(self, name: str) -> int:
        return -(-self.rows(name) // self.chunk_rows)

    def column(self, name: str) -> np.ndarray:
        """The whole column as one read-only memmap (empty columns get a
        plain empty array — memmaps cannot be zero-length)."""
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
            view = np.memmap(
                self.column_path(name, generation), dtype=dtype, mode="r", shape=(rows,)
            )
            cached = self._maps[name] = (version, view)
        return cached[1]

    # ------------------------------------------------------------------
    # transactional rewind
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the manifest for :meth:`restore`.

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
                with open(path, "r+b") as handle:
                    handle.truncate(want)
                    handle.flush()
                    os.fsync(handle.fileno())
            elif path.stat().st_size < want:
                raise ValueError(
                    f"cannot rewind column {name!r}: {path} holds fewer "
                    f"bytes than the checkpoint recorded"
                )
        for name, meta in restored.items():
            current = self._columns.get(name)
            if current is not None:
                # The rewind itself may change visible bytes (truncation);
                # never fall behind the live epoch counter.
                meta["epoch"] = (
                    max(int(meta.get("epoch", 0)), int(current.get("epoch", 0))) + 1
                )
        self._columns = restored
        self._maps.clear()
        self._write_manifest()

    def prune_stale(self) -> int:
        """Delete generation files the current manifest does not reference."""
        live = {
            self.column_path(name, int(meta["generation"])).name
            for name, meta in self._columns.items()
        }
        pruned = 0
        for path in self.directory.glob("*.col"):
            if path.name not in live:
                path.unlink()
                pruned += 1
        return pruned


class ChunkLRU:
    """Small in-RAM cache of chunk copies over a :class:`ChunkedColumnStore`.

    Maintenance passes stream columns through it; ``resident_bytes`` is
    the accountable RAM those passes may hold at once (``capacity_chunks``
    chunk copies), independent of the column length.
    """

    def __init__(self, store: ChunkedColumnStore, capacity_chunks: int = 8) -> None:
        if capacity_chunks <= 0:
            raise ValueError(
                f"capacity_chunks must be positive, got {capacity_chunks}"
            )
        self.store = store
        self.capacity_chunks = int(capacity_chunks)
        self._chunks: "OrderedDict[Tuple[str, int, int], np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def chunk(self, name: str, index: int) -> np.ndarray:
        """Chunk ``index`` of ``name`` as an in-RAM copy (LRU-cached)."""
        version = self.store.version(name)
        key = (name, version, index)
        cached = self._chunks.get(key)
        if cached is not None:
            self.hits += 1
            self._chunks.move_to_end(key)
            return cached
        self.misses += 1
        # A rewrite/extend/rewind changed the column version: copies of
        # the dead one are unreachable, drop them before they crowd out
        # live chunks.
        for stale in [k for k in self._chunks if k[0] == name and k[1] != version]:
            del self._chunks[stale]
        column = self.store.column(name)
        start = index * self.store.chunk_rows
        copy = np.array(column[start : start + self.store.chunk_rows])
        self._chunks[key] = copy
        while len(self._chunks) > self.capacity_chunks:
            self._chunks.popitem(last=False)
        return copy

    def iter_chunks(self, name: str) -> Iterator[Tuple[int, np.ndarray]]:
        """``(start_row, chunk)`` over one column, in order."""
        for index in range(self.store.num_chunks(name)):
            yield index * self.store.chunk_rows, self.chunk(name, index)

    @property
    def resident_bytes(self) -> int:
        """Bytes of column data currently held in RAM."""
        return sum(chunk.nbytes for chunk in self._chunks.values())

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "chunks": len(self._chunks),
            "resident_bytes": self.resident_bytes,
            "capacity_chunks": self.capacity_chunks,
        }
