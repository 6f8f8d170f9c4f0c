"""Snapshot format 5: a durable snapshot is a few dozen flat arrays.

``StreamingLinker.save`` packs each side's histories and each corpus'
residents into concatenated columns, and the LSH capture holds only the
placements.  So:

* the unpickled payloads hold no ``MobilityHistory`` and no
  ``WindowIndex``, and as many arrays for 100 entities as for 10;
* ``restore(save(w))`` and ``w`` take the same next round — links,
  scores, ``RelinkStats``, cache hits / misses and ``memory_stats()`` —
  after any observe / retire / relink sequence, over brute-force and LSH
  candidates, with and without a sliding window, in memory and on disk,
  and with a side that holds no entity yet;
* a restore adopts the captured corpora without a cold build;
* format 4 is refused by name: ``LinkageService(state_dir=...)`` warns
  ``SnapshotVersionSkew`` and serves from a cold start.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corpus import HistoryCorpus, WindowIndex
from repro.core.history import MobilityHistory
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh import LshConfig, LshStats, SignatureSpec
from repro.pipeline import LinkageConfig
from repro.serve import LinkageService
from repro.store import read_snapshot
from repro.store.snapshot import load_state

SIDES = ("left", "right")
HOUR = 3600.0
LSH = LshConfig(threshold=0.3, step_windows=8, spatial_level=14)
CONFIGS = {
    "brute": LinkageConfig(),
    "lsh": LinkageConfig(lsh=LSH),
    "brute-sliding-window": LinkageConfig(
        retention="sliding_window", retention_window=40
    ),
    "lsh-sliding-window": LinkageConfig(
        lsh=LSH, retention="sliding_window", retention_window=40
    ),
}


def _records(entity, side, place, when, count=2):
    """``count`` sightings of ``entity`` around place ``place``; the two
    sides see the same place a few metres apart."""
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(
            entity,
            37.6 + (place % 5) * 0.01 + jitter,
            -122.4 + (place // 5) * 0.01 + jitter,
            when + 40.0 * k,
        )
        for k in range(count)
    ]


def _storage(storage, directory):
    if storage == "memory":
        return {}
    return {"storage": "disk", "store_dir": directory, "store_chunk_rows": 8}


def _populated(config, entities, **options):
    linker = StreamingLinker(0.0, config, **options)
    for side in SIDES:
        for entity in range(entities):
            linker.observe(side, _records(f"e{entity}", side, entity, 10.0 + entity))
    linker.relink()
    return linker


# ----------------------------------------------------------------------
# the payload is arrays, not per-entity objects
# ----------------------------------------------------------------------
def _walk(value, arrays):
    """Count the ndarray leaves under ``value``; no history or window
    directory may be among the objects on the way."""
    assert not isinstance(value, (MobilityHistory, WindowIndex)), type(value)
    if isinstance(value, np.ndarray):
        arrays.append(value)
    elif isinstance(value, dict):
        for item in value.values():
            _walk(item, arrays)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _walk(item, arrays)
    elif hasattr(value, "__dict__"):
        _walk(vars(value), arrays)
    return arrays


@pytest.mark.parametrize("storage", ["memory", "disk"])
@pytest.mark.parametrize("name", ["brute", "lsh"])
def test_the_payload_is_as_many_arrays_for_100_entities_as_for_10(
    tmp_path, name, storage
):
    counts = []
    for entities in (10, 100):
        linker = _populated(
            CONFIGS[name], entities, **_storage(storage, tmp_path / f"store{entities}")
        )
        linker.save(tmp_path / f"snaps{entities}")
        payloads = load_state(tmp_path / f"snaps{entities}", ("state", "score_cache"))
        state = payloads[0]
        assert [len(state["sides"][side]["ids"]) for side in SIDES] == [entities] * 2
        counts.append(len(_walk(payloads, [])))
    assert counts[0] == counts[1]


def test_the_packed_lsh_entry_is_arrays_the_spec_and_the_stats(tmp_path):
    """Per side, the placed entities' ids and their bucket-matrix rows —
    two arrays — beside the spec and the stats: no per-entity container
    (format 7 pickled a ``(side, id) -> bucket list`` dict)."""
    linker = _populated(CONFIGS["lsh"], 10)
    linker.save(tmp_path / "snaps")
    (state,) = load_state(tmp_path / "snaps", ("state",))
    entry = state["lsh_index"]
    assert set(entry) == {"spec", "stats", "ids", "matrices"}
    assert isinstance(entry["spec"], SignatureSpec)
    assert isinstance(entry["stats"], LshStats)
    bands = linker._lsh_index.num_bands
    for ids, matrix in zip(entry["ids"], entry["matrices"]):
        assert isinstance(ids, np.ndarray) and isinstance(matrix, np.ndarray)
        assert sorted(ids.tolist()) == sorted(f"e{k}" for k in range(10))
        assert matrix.shape == (10, bands) and (matrix >= 0).any(axis=1).all()
    assert len(entry["ids"]) == len(entry["matrices"]) == 2


# ----------------------------------------------------------------------
# restore(save(w)) takes the same next round as w
# ----------------------------------------------------------------------
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.sampled_from(SIDES),
            st.integers(0, 7),
            st.integers(0, 9),
            st.sampled_from([60.0, 400.0, 1500.0, 5 * HOUR]),
        ),
        st.tuples(st.just("retire"), st.sampled_from(SIDES), st.integers(0, 7)),
        st.tuples(st.just("relink")),
    ),
    max_size=10,
)


def _apply(linker, ops):
    clock = 10.0
    for op in ops:
        if op[0] == "observe":
            _, side, entity, place, step = op
            clock += step
            linker.observe(side, _records(f"e{entity}", side, place, clock))
        elif op[0] == "retire":
            _, side, entity = op
            held = linker._sides[side]
            if f"e{entity}" in held and len(held) > 1:
                linker.retire(side, [f"e{entity}"])
        else:
            linker.relink()
    return clock


def _next_round(linker, clock):
    linker.observe("left", _records("e0", "left", 3, clock + 600.0))
    linker.observe("right", _records("e9", "right", 9, clock + 700.0))
    report = linker.relink()
    stats = linker.memory_stats()
    if linker.storage == "disk":
        # A disk restore re-spills: the new store starts compacted and
        # with a cold chunk cache.  That is residency, not state.
        del stats["left_flat_entries"], stats["right_flat_entries"]
        del stats["left_flat_resident_bytes"], stats["right_flat_resident_bytes"]
    cache = linker.score_cache
    return (
        dict(report.links), report.link_scores, linker.last_relink,
        cache.hits, cache.misses, len(cache), stats,
    )


@pytest.mark.parametrize("storage", ["memory", "disk"])
@pytest.mark.parametrize("name", list(CONFIGS))
@settings(max_examples=10, deadline=None)
@given(ops=OPS)
def test_a_restored_linker_takes_the_writers_next_round(
    tmp_path_factory, name, storage, ops
):
    tmp = tmp_path_factory.mktemp("round-trip")
    writer = _populated(CONFIGS[name], 3, **_storage(storage, tmp / "writer"))
    clock = _apply(writer, ops)
    writer.save(tmp / "snaps")
    restored = StreamingLinker.restore(
        tmp / "snaps", strict=True, **_storage(storage, tmp / "reader")
    )
    assert _next_round(restored, clock) == _next_round(writer, clock)


def test_a_side_with_no_entities_round_trips(tmp_path):
    """Observed on one side only, never relinked: the other side packs
    to empty columns and no windowing, and no corpus exists yet."""
    writer = StreamingLinker(0.0)
    writer.observe("left", _records("e1", "left", 1, 10.0))
    writer.save(tmp_path / "snaps")
    (state,) = load_state(tmp_path / "snaps", ("state",))
    assert state["sides"]["right"]["ids"] == []
    assert state["sides"]["right"]["windowing"] is None
    assert state["corpora"] == {"left": None, "right": None}
    restored = StreamingLinker.restore(tmp_path / "snaps", strict=True)
    assert (restored.num_left_entities, restored.num_right_entities) == (1, 0)
    assert _next_round(restored, 10.0) == _next_round(writer, 10.0)


# ----------------------------------------------------------------------
# a restore adopts the captured corpora: no cold build
# ----------------------------------------------------------------------
@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_restore_refreshes_no_corpus(tmp_path, monkeypatch, storage):
    writer = _populated(CONFIGS["lsh"], 6, **_storage(storage, tmp_path / "writer"))
    writer.observe("left", _records("e1", "left", 4, 5 * HOUR))
    writer.relink()
    writer.save(tmp_path / "snaps")

    refreshes = []
    refresh = HistoryCorpus.refresh
    monkeypatch.setattr(
        HistoryCorpus, "refresh", lambda self: refreshes.append(self) or refresh(self)
    )
    restored = StreamingLinker.restore(
        tmp_path / "snaps", strict=True, **_storage(storage, tmp_path / "reader")
    )
    assert refreshes == []
    assert all(corpus.storage == storage for corpus in restored._corpora.values())
    assert _next_round(restored, 5 * HOUR) == _next_round(writer, 5 * HOUR)
    assert len(refreshes) == 4  # each next round refreshed both of its corpora


# ----------------------------------------------------------------------
# format 4 is refused by name
# ----------------------------------------------------------------------
def test_a_service_over_a_format_4_state_dir_warns_and_serves_cold(tmp_path):
    config = LinkageConfig(threshold="none")
    _populated(config, 4).save(tmp_path / "state")
    _, directory = read_snapshot(tmp_path / "state")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["format"] = 4
    (directory / "manifest.json").write_text(json.dumps(manifest))

    with pytest.warns(RuntimeWarning, match="SnapshotVersionSkew"):
        service = LinkageService(0.0, config, state_dir=tmp_path / "state")
    assert service.linker.num_left_entities == 0  # a cold start

    async def serve():
        async with service:
            for side in SIDES:
                for place, entity in enumerate("uw"):
                    await service.submit(side, _records(entity, side, place, 50.0))
            return await service.flush()

    snapshot = asyncio.run(serve())
    assert dict(snapshot.links) == {"u": "u", "w": "w"}
    assert read_snapshot(tmp_path / "state")[0]["format"] == 8
