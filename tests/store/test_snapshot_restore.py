"""Whole-linker snapshot/restore parity, pinned per executor backend.

A linker restored from ``StreamingLinker.save`` must continue the stream
bit-identically to the linker that never stopped — links, scores, relink
diagnostics and the score-cache contents — under every scoring executor.
"""

from __future__ import annotations

import pytest

from repro.core.retention import SlidingWindowRetention
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.pipeline import LinkageConfig

BACKENDS = ("serial", "thread", "process")


def _round_records(side, round_index, per_side=12):
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(
            f"e{i}",
            37.6 + (i % 4) * 0.01 + jitter,
            -122.4 + (i // 4) * 0.01 + jitter,
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_restored_linker_relinks_bit_identically(tmp_path, backend):
    config = LinkageConfig(executor=backend, workers=2)
    continuous = StreamingLinker(0.0, config=config)
    _replay(continuous, range(3))
    continuous.save(tmp_path / "snaps")

    restored = StreamingLinker.restore(tmp_path / "snaps")
    assert restored is not None
    assert restored.watermark == continuous.watermark
    assert restored.last_relink == continuous.last_relink

    continued = _replay(continuous, range(3, 6))
    resumed = _replay(restored, range(3, 6))
    assert dict(continued.links) == dict(resumed.links)
    assert continued.link_scores == resumed.link_scores
    assert continued.threshold.threshold == resumed.threshold.threshold
    assert continuous.last_relink == restored.last_relink


def test_restored_linker_carries_the_score_cache(tmp_path):
    linker = StreamingLinker(0.0)
    _replay(linker, range(3))
    linker.save(tmp_path / "snaps")
    restored = StreamingLinker.restore(tmp_path / "snaps")
    assert len(restored._score_cache) == len(linker._score_cache)
    assert len(restored._score_cache) > 0
    # A pure replay of the next round scores only the new window pairs;
    # the warm cache makes the reuse diagnostics match exactly.
    continued = _replay(linker, [3])
    resumed = _replay(restored, [3])
    assert linker.last_relink == restored.last_relink
    assert continued.link_scores == resumed.link_scores


def test_snapshot_whose_config_carries_a_deleted_knob_still_restores(tmp_path):
    """Format-3 snapshots written before ``distance_cache_cap`` was
    deleted pickle a ``SimilarityConfig`` that still carries it; the
    attribute must ride along harmlessly — same config, same relinks."""
    linker = StreamingLinker(0.0)
    _replay(linker, range(3))
    legacy = vars(linker.config.similarity)
    legacy["distance_cache_cap"] = 1 << 18
    try:
        linker.save(tmp_path / "snaps")
    finally:
        del legacy["distance_cache_cap"]
    restored = StreamingLinker.restore(tmp_path / "snaps", strict=True)
    assert vars(restored.config.similarity)["distance_cache_cap"] == 1 << 18
    assert restored.config == linker.config
    assert restored.config.to_dict() == linker.config.to_dict()
    continued = _replay(linker, [3])
    resumed = _replay(restored, [3])
    assert linker.last_relink == restored.last_relink
    assert continued.link_scores == resumed.link_scores


def test_restore_into_disk_storage(tmp_path):
    """A snapshot from an in-core linker restores into ``storage="disk"``
    (and vice versa) with identical links — storage is not part of the
    persisted state, it is how the restored process chooses to run."""
    in_core = StreamingLinker(0.0)
    _replay(in_core, range(3))
    in_core.save(tmp_path / "snaps")
    on_disk = StreamingLinker.restore(
        tmp_path / "snaps", storage="disk", store_dir=tmp_path / "store"
    )
    continued = _replay(in_core, range(3, 5))
    resumed = _replay(on_disk, range(3, 5))
    assert dict(continued.links) == dict(resumed.links)
    assert continued.link_scores == resumed.link_scores


def _churn(linker, rounds):
    """Per round: one replay round plus a newcomer per side that the
    sliding window later retires — links, scores and relink stats."""
    views = []
    for round_index in rounds:
        for side in ("left", "right"):
            records = _round_records(side, round_index)
            records += [
                Record(f"n{round_index}", rec.lat + 0.02, rec.lng, rec.timestamp + 60.0)
                for rec in records[:1]
            ]
            linker.observe(side, records)
        report = linker.relink()
        views.append((dict(report.links), report.link_scores, linker.last_relink))
    return views


def test_a_disk_restart_never_reads_the_spill_directory(tmp_path):
    """The spill store is scratch: a restart rebuilds from the snapshot
    and re-spills, so whatever the directory holds — the dead process's
    column files, anything else, a garbage ``store.json`` — is never read."""
    store_dir = tmp_path / "store"
    options = {"storage": "disk", "store_dir": store_dir, "store_chunk_rows": 8}
    continuous = StreamingLinker(0.0, retention=SlidingWindowRetention(2), **options)
    _churn(continuous, range(3))
    continuous.save(tmp_path / "snaps")
    expected = _churn(continuous, range(3, 6))
    assert any(stats.evicted_left for _, _, stats in expected)
    del continuous

    files = [path for path in store_dir.rglob("*") if path.is_file()]
    assert files
    for index, path in enumerate(files):
        if index % 2:
            path.unlink()
        else:
            path.write_bytes(b"\xff" * 3)
    for side in ("left", "right"):
        (store_dir / side / "store.json").write_text("{garbage")
    (store_dir / "store.json").write_text("{garbage")

    restored = StreamingLinker.restore(tmp_path / "snaps", strict=True, **options)
    assert _churn(restored, range(3, 6)) == expected


def test_save_then_save_again_prunes_previous(tmp_path):
    linker = StreamingLinker(0.0)
    _replay(linker, range(2))
    first = linker.save(tmp_path / "snaps")
    _replay(linker, [2])
    second = linker.save(tmp_path / "snaps")
    assert second.name > first.name
    assert not first.exists()
    assert (tmp_path / "snaps" / "CURRENT").read_text() == second.name
