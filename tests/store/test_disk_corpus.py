"""Disk-backed corpus parity: ``storage="disk"`` must be invisible.

The out-of-core backend swaps the corpus flat array views for memmaps
over the chunked column store; kernels, the scalar oracle and every
downstream counter must see bit-identical data.  These tests pin a full
streaming replay — links, scores, relink diagnostics — against the
in-core linker, plus the corpus-level accessor parity the kernels rely
on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.retention import SlidingWindowRetention
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh.index import LshConfig
from repro.pipeline import LinkageConfig
from repro.store.chunks import DEFAULT_CHUNK_ROWS


def _round_records(side, round_index, per_side=14):
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(
            f"e{i}",
            37.6 + (i % 5) * 0.01 + jitter,
            -122.4 + (i // 5) * 0.01 + jitter,
            round_index * 3600.0 + (i * 7) % 3500 + 10.0,
        )
        for i in range(per_side)
    ]


def _replay(linker, rounds):
    report = None
    for round_index in rounds:
        linker.observe("left", _round_records("left", round_index))
        linker.observe("right", _round_records("right", round_index))
        report = linker.relink()
    return report


@pytest.mark.parametrize(
    "config",
    [None, LinkageConfig(lsh=LshConfig(threshold=0.3))],
    ids=["default", "lsh"],
)
def test_disk_linker_bit_identical_to_in_core(tmp_path, config):
    in_core = StreamingLinker(0.0, config=config)
    on_disk = StreamingLinker(
        0.0, config=config, storage="disk", store_dir=tmp_path / "store"
    )
    memory_report = _replay(in_core, range(5))
    disk_report = _replay(on_disk, range(5))

    assert dict(memory_report.links) == dict(disk_report.links)
    assert memory_report.link_scores == disk_report.link_scores
    assert memory_report.threshold.threshold == disk_report.threshold.threshold
    assert in_core.last_relink == on_disk.last_relink


#: The linker's default chunk cache, as a byte bound (8-byte columns).
DEFAULT_CACHE_BYTES = 8 * DEFAULT_CHUNK_ROWS * 8


def test_disk_linker_resident_bytes_are_bounded(tmp_path):
    in_core = StreamingLinker(0.0)
    on_disk = StreamingLinker(
        0.0, storage="disk", store_dir=tmp_path / "store"
    )
    _replay(in_core, range(5))
    _replay(on_disk, range(5))
    memory_stats = in_core.memory_stats()
    disk_stats = on_disk.memory_stats()
    for side in ("left", "right"):
        key = f"{side}_flat_resident_bytes"
        assert disk_stats[key] <= DEFAULT_CACHE_BYTES
        assert disk_stats[key] < memory_stats[key]
    # Everything except flat residency matches exactly.
    for key, value in memory_stats.items():
        if not key.endswith("flat_resident_bytes"):
            assert disk_stats[key] == value, key


def test_an_evicting_disk_linker_streams_within_the_chunk_cache(tmp_path):
    """Eviction recycles df slots — a ``keys`` remap streamed through the
    chunk LRU — so residency is real, and still within the cache."""
    chunk_rows, cache_chunks = 8, 2
    linker = StreamingLinker(
        0.0,
        retention=SlidingWindowRetention(2),
        storage="disk",
        store_dir=tmp_path / "store",
        store_chunk_rows=chunk_rows,
        store_cache_chunks=cache_chunks,
    )
    evicted = 0
    for round_index in range(5):
        for side in ("left", "right"):
            records = _round_records(side, round_index)
            linker.observe(
                side,
                [r._replace(entity_id=f"r{round_index}{r.entity_id}") for r in records],
            )
        linker.relink()
        evicted += linker.last_relink.evicted_left
    assert evicted > 0
    stats = linker.memory_stats()
    for side in ("left", "right"):
        assert 0 < stats[f"{side}_flat_resident_bytes"] <= cache_chunks * chunk_rows * 8


def test_disk_corpus_accessors_match_in_core(tmp_path):
    """Per-entity flat slices from the spilled corpus are bitwise equal.

    The spill re-sorts entities along the Hilbert curve, so the *global*
    flat layout legitimately differs; what the kernels consume — each
    entity's windows and its per-window cell/slot/key/IDF slices — must
    be identical.
    """
    in_core = StreamingLinker(0.0)
    on_disk = StreamingLinker(
        0.0, storage="disk", store_dir=tmp_path / "store"
    )
    _replay(in_core, range(3))
    _replay(on_disk, range(3))
    for side in ("left", "right"):
        memory_corpus = in_core._corpora[side]
        disk_corpus = on_disk._corpora[side]
        assert memory_corpus.storage == "memory"
        assert disk_corpus.storage == "disk"
        memory_flats = memory_corpus.arrays()
        disk_flats = disk_corpus.arrays()
        assert sorted(memory_corpus.entities) == sorted(
            disk_corpus.entities
        )
        for entity in memory_corpus.entities:
            memory_index = memory_corpus.window_index(entity)
            disk_index = disk_corpus.window_index(entity)
            np.testing.assert_array_equal(
                memory_index.windows, disk_index.windows
            )
            np.testing.assert_array_equal(
                memory_index.counts, disk_index.counts
            )
            for k in range(len(memory_index)):
                m0, d0 = memory_index.offsets[k], disk_index.offsets[k]
                count = memory_index.counts[k]
                for field in ("cells", "slots", "idf"):
                    np.testing.assert_array_equal(
                        np.asarray(
                            getattr(memory_flats, field)[m0 : m0 + count]
                        ),
                        np.asarray(
                            getattr(disk_flats, field)[d0 : d0 + count]
                        ),
                    )
