"""The event log, byte by byte: a restore is the newest snapshot plus the
intact prefix of its log, and every way a log can be damaged has a name.

* a torn last frame — the log cut at any byte inside it, or its last
  frame's bytes garbled — is dropped with a ``RuntimeWarning`` naming
  it, under ``strict`` too, and the restore equals the writer after the
  entry before it;
* a CRC mismatch before the last frame is ``EventLogCorrupt`` under
  ``strict``, else a warning naming it and the intact prefix;
* a header naming another snapshot ordinal or log format is
  ``EventLogSkew`` under ``strict``, else a warning and the snapshot
  alone;
* the cadence: a snapshot on the first persist and every ``every``
  persists, and a snapshot prunes the log it supersedes.
"""

import struct
import warnings

import pytest

from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.pipeline import LinkageConfig
from repro.store import EventLogCorrupt, EventLogSkew, SnapshotError
from repro.store.eventlog import Checkpointer, batch_entry

SIDES = ("left", "right")
_CONFIG = LinkageConfig(threshold="none")
_HEADER = 16  # magic (8) + format (4) + snapshot ordinal (4)
_FRAME = 8  # payload length (4) + CRC32 (4)


def _records(entity, side, place, when):
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(entity, 37.6 + place * 0.01 + jitter, -122.4 + jitter, when + 40.0 * k)
        for k in range(2)
    ]


def _summary(linker):
    """What a restore must reproduce, read without mutating the linker."""
    cache = linker.score_cache
    return (
        linker.watermark,
        linker.last_relink,
        cache.hits,
        cache.misses,
        len(cache),
        {
            side: {
                entity: (history.num_records, history.version)
                for entity, history in linker._sides[side].items()
            }
            for side in SIDES
        },
    )


def _apply(linker, events, relink):
    for kind, side, items in events:
        if kind == "observe":
            linker.observe(side, items)
        else:
            linker.retire(side, items)
    if relink:
        linker.relink()
    return batch_entry(events, relinked=relink)


#: Batch 0 is the snapshot; batches 1-3 are logged: a two-sided relink, a
#: one-sided observe that did not relink, and a retire plus an observe.
_BATCHES = [
    ([("observe", side, _records(f"e{k}", side, k, 10.0 + k)) for side in SIDES
      for k in range(3)], True),
    ([("observe", side, _records("e3", side, 3, 4000.0)) for side in SIDES], True),
    ([("observe", "left", _records("e1", "left", 1, 8000.0))], False),
    ([("retire", "right", ["e0"]), ("observe", "right", _records("e1", "right", 1, 8100.0))], True),
]


@pytest.fixture
def logged(tmp_path):
    """``(root, summaries)``: a snapshot plus a three-entry log under
    ``root``; ``summaries[k]`` is the writer after ``k`` logged entries."""
    root = tmp_path / "state"
    writer = StreamingLinker(0.0, _CONFIG)
    checkpointer = Checkpointer(root, every=100)
    summaries = []
    for events, relink in _BATCHES:
        checkpointer.persist(writer, _apply(writer, events, relink))
        summaries.append(_summary(writer))
    assert sorted(p.name for p in root.iterdir()) == ["CURRENT", "log-000001", "snap-000001"]
    return root, summaries


def _frame_starts(data):
    starts, offset = [], _HEADER
    while offset < len(data):
        starts.append(offset)
        (length,) = struct.unpack_from("<I", data, offset)
        offset += _FRAME + length
    assert offset == len(data)
    return starts


def _restore(root, strict=False):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        linker = StreamingLinker.restore(root, strict=strict)
    return linker, [str(w.message) for w in caught if w.category is RuntimeWarning]


def test_an_intact_log_replays_every_entry(logged):
    root, summaries = logged
    restored, messages = _restore(root, strict=True)
    assert messages == []
    assert _summary(restored) == summaries[3]


def test_the_last_frame_cut_at_every_byte_restores_the_entry_before(logged):
    root, summaries = logged
    log = root / "log-000001"
    data = log.read_bytes()
    last = _frame_starts(data)[-1]
    for cut in range(last, len(data)):
        log.write_bytes(data[:cut])
        restored, messages = _restore(root, strict=True)
        assert _summary(restored) == summaries[2], cut
        if cut == last:
            assert messages == []  # a log that ends between frames is whole
        else:
            assert len(messages) == 1 and "torn last frame 2" in messages[0], cut


def test_a_log_cut_inside_its_header_replays_nothing(logged):
    root, summaries = logged
    log = root / "log-000001"
    log.write_bytes(log.read_bytes()[: _HEADER - 3])
    restored, messages = _restore(root, strict=True)
    assert _summary(restored) == summaries[0]
    assert len(messages) == 1 and "torn header" in messages[0]


def test_a_garbled_last_frame_is_torn_not_corrupt(logged):
    root, summaries = logged
    log = root / "log-000001"
    data = bytearray(log.read_bytes())
    data[-5] ^= 0xFF
    log.write_bytes(bytes(data))
    restored, messages = _restore(root, strict=True)
    assert _summary(restored) == summaries[2]
    assert len(messages) == 1 and "torn last frame" in messages[0]


def test_a_flipped_byte_mid_file_is_corrupt(logged):
    root, summaries = logged
    log = root / "log-000001"
    data = bytearray(log.read_bytes())
    starts = _frame_starts(bytes(data))
    middle = (starts[1] + _FRAME + starts[2]) // 2  # inside frame 1's payload
    data[middle] ^= 0x01
    log.write_bytes(bytes(data))

    with pytest.raises(EventLogCorrupt, match="frame 1 at byte"):
        StreamingLinker.restore(root, strict=True)
    restored, messages = _restore(root)
    assert _summary(restored) == summaries[1]  # the intact prefix
    assert len(messages) == 1 and messages[0].startswith("EventLogCorrupt")


@pytest.mark.parametrize("field, value", [("ordinal", 2), ("format", 2)])
def test_a_header_naming_another_ordinal_or_format_is_skew(logged, field, value):
    root, summaries = logged
    log = root / "log-000001"
    data = bytearray(log.read_bytes())
    struct.pack_into("<I", data, 12 if field == "ordinal" else 8, value)
    log.write_bytes(bytes(data))

    with pytest.raises(EventLogSkew):
        StreamingLinker.restore(root, strict=True)
    restored, messages = _restore(root)
    assert _summary(restored) == summaries[0]  # the snapshot alone
    assert len(messages) == 1 and messages[0].startswith("EventLogSkew")


def test_the_log_failures_are_snapshot_errors():
    assert issubclass(EventLogCorrupt, SnapshotError)
    assert issubclass(EventLogSkew, SnapshotError)


def test_a_snapshot_prunes_the_log_it_supersedes_and_starts_its_own(tmp_path):
    root = tmp_path / "state"
    writer = StreamingLinker(0.0, _CONFIG)
    checkpointer = Checkpointer(root, every=100)
    for events, relink in _BATCHES[:2]:
        checkpointer.persist(writer, _apply(writer, events, relink))
    assert checkpointer.dirty
    checkpointer.snapshot(writer)
    assert not checkpointer.dirty
    assert sorted(p.name for p in root.iterdir()) == ["CURRENT", "snap-000002"]
    events, relink = _BATCHES[2]
    checkpointer.persist(writer, _apply(writer, events, relink))
    assert sorted(p.name for p in root.iterdir()) == [
        "CURRENT", "log-000002", "snap-000002",
    ]
    assert _summary(StreamingLinker.restore(root, strict=True)) == _summary(writer)


def test_the_cadence_snapshots_the_first_and_every_nth_persist(tmp_path):
    root = tmp_path / "state"
    writer = StreamingLinker(0.0, _CONFIG)
    saves = []
    save = writer.save
    writer.save = lambda directory: saves.append(save(directory))
    checkpointer = Checkpointer(root, every=3)
    kinds = []
    for index in range(7):
        before = len(saves)
        events = [("observe", side, _records("e0", side, 0, 100.0 * index)) for side in SIDES]
        checkpointer.persist(writer, _apply(writer, events, True))
        kinds.append("snap" if len(saves) > before else "log")
    assert kinds == ["snap", "log", "log", "snap", "log", "log", "snap"]
    assert _summary(StreamingLinker.restore(root, strict=True)) == _summary(writer)


def test_a_cadence_below_one_is_refused(tmp_path):
    with pytest.raises(ValueError, match="cadence"):
        Checkpointer(tmp_path, every=0)
