"""Snapshot failure modes: every broken snapshot restores *nothing*,
is refused with the named failure class, and falls back to a cold start.

Every case runs over both kinds of snapshot root the repo writes — a
whole linker (``StreamingLinker.save``: ``state.pkl`` +
``score_cache.pkl``) and a bare score cache (``ScoreCache.save``:
``score_cache.pkl`` only) — because both are the same
``checkpoint()`` capture framed by the same :mod:`repro.store.snapshot`
writer.  The linker's reader warns by name and returns ``None``
(``strict=True`` raises); the cache's reader raises the named error and
the CLI does the warning (``tests/test_cli_score_cache.py``).
"""

from __future__ import annotations

import errno
import json
import os
import pickle

import pytest

from cache_calls import store
from repro.core.score_cache import ScoreCache
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.store import (
    SnapshotDigestMismatch,
    SnapshotMissing,
    SnapshotTruncated,
    SnapshotVersionSkew,
    read_snapshot,
)


def _records(side):
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(f"e{i}", 37.6 + i * 0.01 + jitter, -122.4 + jitter, 100.0 + i)
        for i in range(6)
    ]


def _linker():
    linker = StreamingLinker(0.0)
    linker.observe("left", _records("left"))
    linker.observe("right", _records("right"))
    linker.relink()
    return linker


def _cache(extra=False):
    cache = ScoreCache()
    store(cache, "space-a", "u", "v", 1, 2, raw=1.5,
          bin_comparisons=4, common_windows=2, alibi_bin_pairs=1)
    store(cache, ("content", "abc"), "u", "x", 3, 1, raw=0.75,
          bin_comparisons=1, common_windows=1, alibi_bin_pairs=0)
    if extra:
        store(cache, "space-b", "y", "z", 0, 0, raw=0.5,
              bin_comparisons=2, common_windows=1, alibi_bin_pairs=0)
    return cache


class _LinkerRoot:
    """A whole-linker snapshot root and its warn-and-cold-start reader."""

    payload = "state.pkl"

    @staticmethod
    def save(root, bigger=False):
        linker = _linker()
        if bigger:
            linker.observe("left", [Record("late", 37.9, -122.1, 500.0)])
            linker.relink()
        return linker.save(root)

    @staticmethod
    def load(root):
        return StreamingLinker.restore(root, strict=True)

    @staticmethod
    def assert_missing(root):
        assert StreamingLinker.restore(root) is None  # and no warning
        assert StreamingLinker.restore(root, strict=True) is None

    @staticmethod
    def assert_refused(root, error):
        with pytest.warns(RuntimeWarning, match=error.__name__):
            assert StreamingLinker.restore(root) is None
        with pytest.raises(error):
            StreamingLinker.restore(root, strict=True)

    @staticmethod
    def size(loaded):
        return loaded.num_left_entities


class _CacheRoot:
    """A bare score-cache root; ``ScoreCache.load`` raises by name."""

    payload = "score_cache.pkl"

    @staticmethod
    def save(root, bigger=False):
        return _cache(extra=bigger).save(root)

    @staticmethod
    def load(root):
        return ScoreCache.load(root)

    @staticmethod
    def assert_missing(root):
        with pytest.raises(SnapshotMissing):
            ScoreCache.load(root)

    @staticmethod
    def assert_refused(root, error):
        with pytest.raises(error):
            ScoreCache.load(root)

    @staticmethod
    def size(loaded):
        return len(loaded)


@pytest.fixture(params=[_LinkerRoot, _CacheRoot], ids=["linker", "cache"])
def kind(request):
    return request.param


@pytest.fixture()
def snapshot_root(kind, tmp_path):
    root = tmp_path / "snaps"
    kind.save(root)
    return root


def _snap_dir(root):
    return sorted(root.glob("snap-*"))[-1]


class _Tripwire:
    """Unpickling this is the test failure: readers must refuse first."""

    def __reduce__(self):
        return (exec, ("raise AssertionError('a refused file was unpickled')",))


def _flip_middle_byte(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


# ----------------------------------------------------------------------
# nothing there
# ----------------------------------------------------------------------
def test_missing_root_is_a_silent_cold_start(kind, tmp_path, recwarn):
    kind.assert_missing(tmp_path / "nowhere")
    assert not recwarn.list


def test_wrong_kind_of_root_is_truncated_not_a_traceback(tmp_path):
    """A bare cache root asked for linker state lacks the payload: a
    named failure, not a ``KeyError`` (the converse works — a linker
    snapshot carries a loadable score cache)."""
    _CacheRoot.save(tmp_path / "cache")
    _LinkerRoot.assert_refused(tmp_path / "cache", SnapshotTruncated)
    _LinkerRoot.save(tmp_path / "linker")
    assert len(ScoreCache.load(tmp_path / "linker")) > 0


# ----------------------------------------------------------------------
# untrustworthy snapshots: refused by name, before anything is unpickled
# ----------------------------------------------------------------------
def test_truncated_manifest_warns_by_name_and_cold_starts(kind, snapshot_root):
    manifest = _snap_dir(snapshot_root) / "manifest.json"
    manifest.write_text(manifest.read_text()[: len(manifest.read_text()) // 2])
    with pytest.raises(SnapshotTruncated):
        read_snapshot(snapshot_root)
    kind.assert_refused(snapshot_root, SnapshotTruncated)


def test_missing_manifest_is_truncated(kind, snapshot_root):
    (_snap_dir(snapshot_root) / "manifest.json").unlink()
    with pytest.raises(SnapshotTruncated):
        read_snapshot(snapshot_root)
    kind.assert_refused(snapshot_root, SnapshotTruncated)


def test_missing_payload_is_truncated(kind, snapshot_root):
    (_snap_dir(snapshot_root) / kind.payload).unlink()
    kind.assert_refused(snapshot_root, SnapshotTruncated)


def test_truncated_payload_is_a_digest_mismatch(kind, snapshot_root):
    payload = _snap_dir(snapshot_root) / kind.payload
    payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
    kind.assert_refused(snapshot_root, SnapshotDigestMismatch)


def test_digest_mismatch_warns_by_name_and_cold_starts(kind, snapshot_root):
    _flip_middle_byte(_snap_dir(snapshot_root) / kind.payload)
    with pytest.raises(SnapshotDigestMismatch):
        read_snapshot(snapshot_root)
    kind.assert_refused(snapshot_root, SnapshotDigestMismatch)


def test_swapped_payload_is_refused_before_it_is_unpickled(kind, snapshot_root):
    (_snap_dir(snapshot_root) / kind.payload).write_bytes(
        pickle.dumps(_Tripwire())
    )
    kind.assert_refused(snapshot_root, SnapshotDigestMismatch)


def _rewrite_format(snapshot_root, value):
    manifest_path = _snap_dir(snapshot_root) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = value
    manifest_path.write_text(json.dumps(manifest))


def test_version_skew_warns_by_name_and_cold_starts(kind, snapshot_root):
    _rewrite_format(snapshot_root, 999)
    with pytest.raises(SnapshotVersionSkew):
        read_snapshot(snapshot_root)
    kind.assert_refused(snapshot_root, SnapshotVersionSkew)


@pytest.mark.parametrize("previous", [3, 4, 5, 6, 7])
def test_the_previous_format_is_refused_not_converted(kind, snapshot_root, previous):
    """Format 3 (histories pickled their views, corpora their bin dicts),
    format 4 (one pickled object per history and corpus resident),
    format 5 (one pickled key tuple per cached pair), format 6 (one
    packed directory per corpus resident) and format 7 (one pickled
    bucket list per LSH-placed entity) take the same named path: warn
    and cold-start, or raise when strict."""
    _rewrite_format(snapshot_root, previous)
    kind.assert_refused(snapshot_root, SnapshotVersionSkew)


@pytest.mark.parametrize(
    "blob",
    [
        pickle.dumps(_Tripwire()),  # somebody else's pickle
        b"REPRO-SCORE-CACHE\x01" + b"\0" * 40,  # a pre-snapshot cache blob
        b"REPRO-SCORE-CACHE",  # header only
        b"",
    ],
    ids=["foreign-pickle", "legacy-blob", "header-only", "empty"],
)
def test_single_file_is_refused_by_name_without_unpickling(kind, tmp_path, blob):
    """Score caches used to be one-file blobs; a plain file where a
    snapshot root should be is version skew — for either reader — and is
    never deserialised."""
    path = tmp_path / "scores.bin"
    path.write_bytes(blob)
    with pytest.raises(SnapshotVersionSkew, match="single file"):
        read_snapshot(path)
    kind.assert_refused(path, SnapshotVersionSkew)


# ----------------------------------------------------------------------
# tmp litter from crashed writers
# ----------------------------------------------------------------------
def test_tmp_litter_only_is_missing_with_litter_warning(tmp_path):
    root = tmp_path / "snaps"
    litter = root / "snap-000001.tmp-12345"
    litter.mkdir(parents=True)
    (litter / "state.pkl").write_bytes(b"partial")
    with pytest.warns(RuntimeWarning, match="tmp litter"):
        with pytest.raises(SnapshotMissing):
            read_snapshot(root)
    with pytest.warns(RuntimeWarning, match="tmp litter"):
        assert StreamingLinker.restore(root) is None


def test_litter_beside_a_good_snapshot_warns_but_restores(kind, snapshot_root):
    litter = snapshot_root / "snap-000099.tmp-777"
    litter.mkdir()
    (litter / kind.payload).write_bytes(b"partial")
    with pytest.warns(RuntimeWarning, match="tmp litter"):
        restored = kind.load(snapshot_root)
    assert kind.size(restored) > 0


def test_pointer_swap_litter_is_warned_about_and_cleaned(kind, snapshot_root):
    """A writer killed between staging the ``CURRENT`` pointer and
    renaming it leaves a ``CURRENT.tmp-*`` file: the reader must name it
    in the litter warning and the next save must remove it (the pointer
    used to be staged as ``CURRENT<rand>.tmp``, which neither glob saw)."""
    stale = snapshot_root / "CURRENT.tmp-k1ll3d"
    stale.write_text("snap-000001")
    with pytest.warns(RuntimeWarning, match="CURRENT.tmp-k1ll3d"):
        read_snapshot(snapshot_root)
    kind.save(snapshot_root)
    assert not stale.exists()
    assert sorted(p.name for p in snapshot_root.iterdir()) == [
        "CURRENT",
        "snap-000002",
    ]


def test_failed_pointer_swap_leaves_no_litter(kind, snapshot_root, monkeypatch):
    """``ENOSPC`` on the pointer rename (after the promote): the error
    surfaces, the staged pointer file is unlinked, and the promoted
    snapshot — found by ordinal, not through ``CURRENT`` — is what the
    next reader gets."""
    real_replace = os.replace

    def replace(src, dst):
        if os.path.isfile(src):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="No space left"):
        kind.save(snapshot_root, bigger=True)
    monkeypatch.undo()

    names = sorted(p.name for p in snapshot_root.iterdir())
    assert names == ["CURRENT", "snap-000001", "snap-000002"]
    assert (snapshot_root / "CURRENT").read_text() == "snap-000001"
    assert kind.size(kind.load(snapshot_root)) > kind.size(_fresh(kind))


def _fresh(kind):
    """What ``kind.save(root)`` (not ``bigger``) holds, for size checks."""
    return _linker() if kind is _LinkerRoot else _cache()


# ----------------------------------------------------------------------
# save is all-or-nothing
# ----------------------------------------------------------------------
def _crash(*args, **kwargs):
    raise OSError("injected mid-save crash")


@pytest.mark.parametrize("syscall", ["replace", "fsync"])
def test_killed_mid_save_keeps_the_old_snapshot(
    kind, snapshot_root, monkeypatch, syscall
):
    """Die while flushing a payload (``fsync``) or at the promote
    (``replace``): the previous snapshot still loads, byte-exact, and the
    staging directory is gone."""
    good = {
        path.name: path.read_bytes()
        for path in _snap_dir(snapshot_root).iterdir()
    }
    monkeypatch.setattr(os, syscall, _crash)
    with pytest.raises(OSError, match="injected"):
        kind.save(snapshot_root, bigger=True)
    monkeypatch.undo()

    assert sorted(p.name for p in snapshot_root.iterdir()) == [
        "CURRENT",
        "snap-000001",
    ]
    assert {
        path.name: path.read_bytes()
        for path in _snap_dir(snapshot_root).iterdir()
    } == good
    assert kind.size(kind.load(snapshot_root)) == kind.size(_fresh(kind))


@pytest.mark.parametrize("syscall", ["replace", "fsync"])
def test_failed_first_save_leaves_nothing_to_half_trust(
    kind, tmp_path, monkeypatch, syscall
):
    """With no previous save, repeated crashed saves leave an empty root
    — no partial snapshot a later load would half-trust, no accumulating
    ``*.tmp-*`` debris — and a clean retry then succeeds."""
    root = tmp_path / "snaps"
    monkeypatch.setattr(os, syscall, _crash)
    for _ in range(3):
        with pytest.raises(OSError, match="injected"):
            kind.save(root)
    monkeypatch.undo()
    assert list(root.iterdir()) == []
    kind.assert_missing(root)

    kind.save(root)
    assert sorted(p.name for p in root.iterdir()) == ["CURRENT", "snap-000001"]
    assert kind.size(kind.load(root)) == kind.size(_fresh(kind))
