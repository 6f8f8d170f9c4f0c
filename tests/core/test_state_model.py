"""One state model: ``checkpoint()`` / ``restore()`` is the only state
protocol, and one capture serves rollback, snapshots and restart.

For every stateful component — corpus (memory and disk), score cache,
LSH index, chunk store, the whole linker — the same two properties:

* **rollback**: ``restore(checkpoint())`` after arbitrary further
  mutation continues *bit-identically* to a twin that never mutated;
* **restart**: ``restore(pickle.loads(pickle.dumps(checkpoint())))``
  onto a fresh instance continues bit-identically too — the capture is
  plain containers, arrays and scalars, picklable as-is.

"Continues" means a scripted tail of further operations whose every
observable (links, scores, ``RelinkStats``, cache hit/miss counters, the
cache's pair -> values mapping, per-entity array slices, bucket matrices,
column bytes) is compared with ``==``, never ``approx``.

Plus a completeness check on the linker: every attribute
``_relink_once`` mutates is inside the capture.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from cache_calls import capture_rows, lookup, store
from fig1_oracle import build_signature
from hypothesis import given, settings
from hypothesis import strategies as st
from lsh_calls import Named
from lsh_calls import state as lsh_state

from repro.core.corpus import _ROW_COLUMNS, HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.score_cache import ScoreCache, split_codes
from repro.core.similarity import score_cache_space
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh.index import LshConfig, LshIndex
from repro.pipeline import LinkageConfig
from repro.store import ChunkedColumnStore, hilbert_key
from repro.temporal import Windowing

LEVEL = 12
WINDOWING = Windowing(0.0, 900.0)


def _history(entity, rounds):
    """Entity ``e<k>`` visits a k-dependent cell once per round."""
    k = int(entity[1:])
    times = np.array([r * 3600.0 + (k * 7) % 3500 + 10.0 for r in rounds])
    lats = np.full(len(times), 37.6 + (k % 5) * 0.01)
    lngs = np.array([-122.4 + (k // 5) * 0.01 + 0.002 * (r % 3) for r in rounds])
    return times, lats, lngs


def _histories(count=10, rounds=range(3)):
    return {
        f"e{k}": MobilityHistory.from_columns(
            f"e{k}", *_history(f"e{k}", rounds), WINDOWING, LEVEL
        )
        for k in range(count)
    }


# ----------------------------------------------------------------------
# cases: build() a warm subject, disturb() it, proceed() with a scripted
# tail and return everything observable
# ----------------------------------------------------------------------
class _CorpusCase:
    storage = "memory"

    def build(self, tmp):
        histories = _histories()
        corpus = HistoryCorpus(histories, LEVEL, cache_token=("case", "corpus"))
        corpus.arrays()
        if self.storage == "disk":
            corpus.spill(tmp / "store", chunk_rows=8)
        # One refresh with growth, an arrival and a retirement, so the
        # capture holds garbage slices, recycled df slots and warm caches.
        histories["e1"].extend(*_history("e1", [5]))
        histories["e20"] = MobilityHistory.from_columns(
            "e20", *_history("e20", range(2)), WINDOWING, LEVEL
        )
        del histories["e9"]
        corpus.refresh()
        corpus.bins_with_idf("e2"), corpus.relative_size("e3")
        return corpus

    def checkpoint(self, corpus):
        # The histories mapping is the caller's to restore (the linker
        # captures its sides next to the corpus state).
        return {"corpus": corpus.checkpoint(), "histories": dict(corpus.histories())}

    def restore(self, corpus, state):
        histories = corpus.histories()
        histories.clear()
        histories.update(state["histories"])
        corpus.restore(state["corpus"])

    def fresh(self, state, tmp):
        self._respill = tmp / "restarted"
        # As StreamingLinker._restore does: build over the captured
        # histories, then restore; storage is chosen anew.
        return HistoryCorpus(dict(state["histories"]), state["corpus"]["level"])

    def after_restart(self, corpus):
        if self.storage == "disk":
            corpus.spill(self._respill, chunk_rows=8)

    def disturb(self, corpus):
        histories = corpus.histories()
        del histories["e2"], histories["e3"]
        histories["e30"] = MobilityHistory.from_columns(
            "e30", *_history("e30", range(4)), WINDOWING, LEVEL
        )
        corpus.refresh()
        corpus.bins_with_idf("e30")

    def proceed(self, corpus):
        histories = corpus.histories()
        histories["e40"] = MobilityHistory.from_columns(
            "e40", *_history("e40", range(3)), WINDOWING, LEVEL
        )
        del histories["e4"]
        delta = corpus.refresh()
        arrays = corpus.arrays()
        table = corpus.cell_table()
        entities = {}
        for entity in sorted(histories):
            index = corpus.window_index(entity)
            slices = [
                slice(int(o), int(o + c))
                for o, c in zip(index.offsets, index.counts)
            ]
            entities[entity] = (
                index.windows.tolist(),
                [arrays.cells[s].tolist() for s in slices],
                [table.cell_ids[arrays.slots[s]].tolist() for s in slices],
                [arrays.idf[s].tolist() for s in slices],
                corpus.bins_with_idf(entity),
                corpus.relative_size(entity),
            )
        stats = corpus.memory_stats()
        stats.pop("flat_resident_bytes")  # residency, not state
        return (
            delta,
            corpus.level,
            corpus.cache_token,
            corpus.size,
            corpus.avg_bins,
            stats,
            entities,
        )


class _DiskCorpusCase(_CorpusCase):
    storage = "disk"


def _entries(capture, by=lambda key: key):
    """A score-cache capture as ``{by(key): column values}``: row order
    is not cache state."""
    return {by(key): values for key, values in capture_rows(capture).items()}


class _ScoreCacheCase:
    @staticmethod
    def _store(cache, space, k, version=0):
        store(cache, space, f"u{k}", f"v{k % 4}", version, 0, raw=k / 7.0,
              bin_comparisons=k, common_windows=k % 3, alibi_bin_pairs=k % 2)

    def build(self, tmp):
        cache = ScoreCache()
        for k in range(12):
            self._store(cache, "a" if k % 2 else ("b", 1), k)
        lookup(cache, "a", "u7", "v3", 0, 0)  # hit
        lookup(cache, "a", "u9", "v1", 5, 0)  # stale: evicted, a free row
        cache.invalidate_pairs(*cache.entities.codes({"u10"}, set()), space=("b", 1))
        cache.invalidate_pairs(*cache.entities.codes(set(), {"v3"}), space=None)
        return cache

    def checkpoint(self, cache):
        return cache.checkpoint()

    def restore(self, cache, state):
        cache.restore(state)

    def fresh(self, state, tmp):
        return ScoreCache()

    def after_restart(self, cache):
        pass

    def disturb(self, cache):
        lookup(cache, ("b", 1), "u6", "v2", 0, 0)  # hit
        for k in range(20, 31):
            self._store(cache, "c", k)
        cache.invalidate_pairs(*cache.entities.codes({"u5", "u8"}, set()))
        lookup(cache, "a", "u5", "v1", 0, 0)
        self._store(cache, "c", 30, version=1)  # over an existing key
        cache.lookup_batch(  # a hit, a stale row dropped
            "c",
            cache.entities.pair_codes([("u29", "v1"), ("u28", "v0")]),
            np.array([0, 3]),
            np.array([0, 0]),
        )

    def proceed(self, cache):
        self._store(cache, "a", 13)
        self._store(cache, ("b", 1), 4, version=2)
        hit, batch = cache.lookup_batch(
            "a",
            cache.entities.pair_codes(
                [("u5", "v1"), ("u13", "v1"), ("u1", "v1"), ("nobody", "v0")]
            ),
            np.array([0, 0, 0, 0]),
            np.array([0, 0, 0, 0]),
        )
        return (
            len(cache),
            cache.hits,
            cache.misses,
            _entries(cache.checkpoint()),
            [hit.tolist(), *(column.tolist() for column in batch)],
            lookup(cache, ("b", 1), "u4", "v0", 2, 0),
        )


class _LshIndexCase:
    """The index driven by name (:class:`lsh_calls.Named`).  Its entity
    codes are the caller's; every instance here codes the same ids in the
    same order first, so a fresh index shares the subject's numbering, as
    a linker's index shares its score cache's."""

    config = LshConfig(threshold=0.3, step_windows=4, spatial_level=LEVEL)

    def _spec(self, windows=24):
        return self.config.signature_spec(windows)

    def _named(self, spec):
        histories = self._histories_ = _histories(12, range(6))
        left = {k: v for k, v in histories.items() if int(k[1:]) % 2}
        right = {k: v for k, v in histories.items() if not int(k[1:]) % 2}
        named = Named(LshIndex(self.config, spec))
        named.entities.codes(sorted(left), sorted(right))
        return named, left, right

    def build(self, tmp):
        named, left, right = self._named(self._spec())
        named.index.add_histories(left, right)  # sorted-position codes
        named.remove("e3", "left")
        named.index.candidate_pairs()
        return named

    def checkpoint(self, named):
        return named.index.checkpoint()

    def restore(self, named, state):
        named.index.restore(state)

    def fresh(self, state, tmp):
        # Deliberately a different layout: restore adopts the captured spec.
        return self._named(self._spec(windows=8))[0]

    def after_restart(self, named):
        pass

    def disturb(self, named):
        for entity in ("e1", "e5"):
            named.remove(entity, "left")
        signature = build_signature(self._histories_["e2"], named.index.spec)
        named.add("ghost", signature, "left")
        named.index.candidate_pairs()

    def proceed(self, named):
        index = named.index
        index.update_spec(self._spec(windows=23))
        named.remove("e4", "right")
        named.add("e3", build_signature(self._histories_["e3"], index.spec), "left")
        pairs = named.candidate_pairs()
        return (sorted(pairs), index.num_bands, index.spec, index.stats, named.placements())


class _ChunkStoreCase:
    def build(self, tmp):
        store = ChunkedColumnStore.create(tmp / "store", chunk_rows=8)
        store.put("cells", np.arange(20, dtype=np.uint64))
        store.put("idf", np.linspace(0.0, 1.0, 20))
        store.extend("cells", np.arange(100, 105, dtype=np.uint64), 20)
        store.put("idf", np.linspace(1.0, 2.0, 25))  # generation 1
        return store

    def checkpoint(self, store):
        return store.checkpoint()

    def restore(self, store, state):
        store.restore(state)

    # No ``fresh``: the store is its process's scratch space, so a
    # restart never reopens it (``linker-disk`` re-spills instead).

    def disturb(self, store):
        store.extend("cells", np.arange(7, dtype=np.uint64), 25)
        store.put("idf", np.zeros(3))
        store.put("extra", np.ones(4, dtype=np.int64))

    def proceed(self, store):
        store.extend("cells", np.arange(200, 203, dtype=np.uint64), 25)
        store.put("idf", np.asarray(store.column("idf")) * 2.0)
        return {
            name: (
                store.rows(name),
                store.generation(name),
                np.asarray(store.column(name)).tolist(),
            )
            for name in sorted(store.names())
        }


def _round_records(side, round_index, per_side=14):
    """Entity ``e<i>`` reports from its home cell once per round (and
    skips every fourth round).  From round 3 on the *left* copies of
    e0..e3 spend most of the hour at the next entity's home: their
    dominating cell — hence their LSH buckets — moves in exactly the
    relink the tests disturb and roll back — and two newcomers arrive,
    so that relink also moves the corpus size (global IDF drift)."""
    jitter = 0.0 if side == "left" else 1.1e-4
    records = []
    for i in range(per_side + 2 * (round_index >= 3)):
        if not (i + round_index) % 4:
            continue
        visits = [(i, round_index * 3600.0 + (i * 7) % 3500 + 10.0)]
        if side == "left" and i < 4 and round_index >= 3:
            visits += [(i + 1, visits[0][1] + n) for n in range(1, 6)]
        if side == "left" and i == 6 and round_index >= 3:
            # A late arrival into the bin e7 filled last round: a *shared*
            # bin's document frequency moves — per-bin IDF drift.
            visits.append((7, (round_index - 1) * 3600.0 + (7 * 7) % 3500 + 10.0))
        for place, when in visits:
            records.append(
                Record(
                    f"e{i}",
                    37.6 + (place % 5) * 0.01 + jitter,
                    -122.4 + (place // 5) * 0.01 + jitter,
                    when,
                )
            )
    return records


def _observe(linker, round_index):
    for side in ("left", "right"):
        linker.observe(side, _round_records(side, round_index))


def _report_view(linker, report, garbage_kept):
    # Where the flats live is residency, not state — and a restore into
    # disk storage re-spills, which compacts the garbage slices away.
    residency = ("flat_resident_bytes",) + (() if garbage_kept else ("flat_entries",))
    cache = linker.score_cache.checkpoint()
    return (
        sorted(dict(report.links).items()),
        sorted(report.link_scores.items()),
        report.threshold.threshold,
        report.candidate_pairs,
        linker.last_relink,
        # Entries by pair: the scoring space embeds the twin's own
        # process-local corpus tokens (their carry-over is what the
        # hit/miss counters prove).
        (cache["hits"], cache["misses"], _entries(cache, by=lambda key: key[1:])),
        linker.watermark,
        {
            key: value
            for key, value in linker.memory_stats().items()
            if not key.endswith(residency)
        },
    )


class _LinkerCase:
    """The whole linker — a persistent LSH index (one 12-hour signature
    slot, so rounds re-signature in place instead of rebuilding),
    retention and a resident pair table (so relinks take the delta
    path) — so every captured field is live.  ``checkpoint`` is taken
    with a round of observed-but-unlinked data pending, exactly where
    ``relink()`` takes it."""

    storage = "memory"
    config = LinkageConfig(
        lsh=LshConfig(threshold=0.3, step_windows=48, spatial_level=14),
        threshold="none",
        retention="sliding_window",
        retention_window=12,
    )

    def _options(self, tmp):
        if self.storage == "memory":
            return {}
        return {
            "storage": "disk",
            "store_dir": tmp,
            "store_chunk_rows": 8,
        }

    def build(self, tmp):
        linker = StreamingLinker(0.0, self.config, **self._options(tmp / "store"))
        for round_index in range(3):
            _observe(linker, round_index)
            linker.relink()
        _observe(linker, 3)
        return linker

    def checkpoint(self, linker):
        return linker.checkpoint()

    def restore(self, linker, state):
        linker._restore(state)

    def fresh(self, state, tmp):
        return StreamingLinker(
            state["origin"], state["config"], retention=state["retention"]
        )  # in memory either way; disk readers: the save→restore test below

    def after_restart(self, linker):
        pass

    def disturb(self, linker):
        linker.relink()  # commits round 3: every layer moves

    def proceed(self, linker, garbage_kept=True):
        views = [_report_view(linker, linker.relink(), garbage_kept)]
        for round_index in (4, 5, 9):  # 9: a gap, so retention evicts
            _observe(linker, round_index)
            views.append(_report_view(linker, linker.relink(), garbage_kept))
        return views


class _DiskLinkerCase(_LinkerCase):
    storage = "disk"


CASES = {
    "corpus-memory": _CorpusCase,
    "corpus-disk": _DiskCorpusCase,
    "score-cache": _ScoreCacheCase,
    "lsh-index": _LshIndexCase,
    "chunk-store": _ChunkStoreCase,
    "linker-memory": _LinkerCase,
    "linker-disk": _DiskLinkerCase,
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]()


@pytest.fixture()
def expected(case, tmp_path):
    """What an undisturbed twin observes over the scripted tail."""
    return case.proceed(case.build(tmp_path / "twin"))


def test_rollback_continues_bit_identically(case, expected, tmp_path):
    subject = case.build(tmp_path / "subject")
    state = case.checkpoint(subject)
    case.disturb(subject)
    case.restore(subject, state)
    assert case.proceed(subject) == expected


def test_one_capture_supports_any_number_of_restores(case, expected, tmp_path):
    subject = case.build(tmp_path / "subject")
    state = case.checkpoint(subject)
    for _ in range(2):
        case.disturb(subject)
        case.restore(subject, state)
    assert case.proceed(subject) == expected


@pytest.mark.parametrize(
    "case", [name for name in CASES if name != "chunk-store"], indirect=True
)
def test_restart_from_the_pickled_capture_continues_bit_identically(
    case, expected, tmp_path
):
    subject = case.build(tmp_path / "subject")
    state = pickle.loads(pickle.dumps(case.checkpoint(subject)))
    case.disturb(subject)  # the old process's later life is irrelevant
    restarted = case.fresh(state, tmp_path / "subject")
    case.restore(restarted, state)
    case.after_restart(restarted)
    assert case.proceed(restarted) == expected


def test_a_restart_under_another_numbering_re_indexes_the_lsh_matrices(tmp_path):
    """The index's rows are the score cache's entity codes.  A capture
    restored into a linker whose cache coded other ids first re-indexes
    each row by its id: the same placements by id under other codes, and
    the same next relink."""
    linker = _LinkerCase().build(tmp_path)
    saved = pickle.loads(pickle.dumps(linker.checkpoint()))
    cache = ScoreCache()
    cache.entities.codes([f"x{k}" for k in range(5)], ["y"])
    restarted = StreamingLinker(
        saved["origin"], saved["config"], retention=saved["retention"],
        score_cache=cache,
    )
    restarted._restore(saved)
    placed = lsh_state(linker._lsh_index, linker.score_cache.entities)
    assert lsh_state(restarted._lsh_index, cache.entities) == placed
    assert any(
        mine.shape != theirs.shape or (mine != theirs).any()
        for mine, theirs in zip(
            restarted._lsh_index._matrices, linker._lsh_index._matrices
        )
    )
    assert _report_view(restarted, restarted.relink(), True)[:5] == _report_view(
        linker, linker.relink(), True
    )[:5]


def _rows_invariants(store):
    """What every write keeps: each space's record holds its pairs
    strictly ascending, every column as long as its pairs, all of it
    read-only; and no space lingers without rows."""
    for record in store._records.values():
        assert len(record.pairs) and (np.diff(record.pairs) > 0).all()
        assert [len(column) for column in record.columns] == [
            len(record.pairs)
        ] * len(ScoreCache._COLUMNS)
        assert not any(a.flags.writeable for a in (record.pairs, *record.columns))


def _bits(store):
    """The store bit for bit: each space's record as bytes, and the
    counters."""
    return (
        {
            space: [a.tobytes() for a in (record.pairs, *record.columns)]
            for space, record in store._records.items()
        },
        store.hits,
        store.misses,
    )


def test_a_capture_outlives_every_later_write_and_restores_bit_for_bit():
    """The capture holds the records by reference: the stores, stale
    drops, sweeps and clears made after it replace records and write
    none, so restoring it puts back exactly what it saw."""
    cache = _ScoreCacheCase().build(None)
    capture, before = cache.checkpoint(), _bits(cache)
    _ScoreCacheCase().disturb(cache)
    cache.invalidate_pairs(*cache.entities.codes({"u1"}, {"v0"}), space="a")
    assert _bits(cache) != before
    cache.clear()
    assert len(cache) == 0
    cache.restore(capture)
    assert _bits(cache) == before
    _rows_invariants(cache)


def test_a_capture_restored_under_another_numbering_serves_the_same_hits():
    """Restored into a cache whose tables coded other ids first, a
    capture is re-coded by id: every pair it held is a hit under its
    versions, with its values, though no pair code is the same."""
    source = _ScoreCacheCase().build(None)
    expected = capture_rows(source.checkpoint())
    other = ScoreCache()
    other.entities.codes(["x0", "x1", "u7"], ["y"])
    other.restore(source.checkpoint())
    assert capture_rows(other.checkpoint()) == expected
    assert not set(other._records["a"].pairs.tolist()) & set(
        source._records["a"].pairs.tolist()
    )
    for (space, left, right), values in expected.items():
        entry = lookup(other, space, left, right, *values[:2])
        assert entry is not None and tuple(entry) == values[2:]
    _rows_invariants(other)


@pytest.mark.parametrize("writer", ["memory", "disk"])
@pytest.mark.parametrize("reader", ["memory", "disk"])
def test_save_restore_across_storage_continues_bit_identically(
    tmp_path, writer, reader
):
    """The durable path end to end (``save`` → ``StreamingLinker.restore``),
    memory↔disk in every combination: storage is not part of the state."""
    case = {"memory": _LinkerCase, "disk": _DiskLinkerCase}[writer]()
    expected = case.proceed(case.build(tmp_path / "twin"), reader == "memory")
    subject = case.build(tmp_path / "subject")
    subject.save(tmp_path / "snaps")
    case.disturb(subject)
    options = (
        {}
        if reader == "memory"
        else {
            "storage": "disk",
            "store_dir": tmp_path / "restored",
            "store_chunk_rows": 8,
        }
    )
    restored = StreamingLinker.restore(tmp_path / "snaps", strict=True, **options)
    assert restored.storage == reader
    assert case.proceed(restored, reader == "memory") == expected


def test_spill_orders_then_compacts_once(tmp_path):
    """``spill()`` sorts the entity directories along the Hilbert curve
    *first* (they point at live rows, garbage or not) and compacts once.
    The spilled columns are bytewise what compact → sort → compact
    produced: each entity's slices, garbage-free, concatenated in
    (Hilbert key of its first cell, entity id) order."""
    corpus = _CorpusCase().build(tmp_path)  # in memory
    for entity in ("e2", "e5"):  # growth: the old slices become garbage
        corpus.histories()[entity].extend(*_history(entity, [6]))
    corpus.refresh()
    stats = corpus.memory_stats()
    assert stats["flat_live"] < stats["flat_entries"]
    arrays = corpus.arrays()
    spans = {}
    for entity in corpus.entities:
        index = corpus.window_index(entity)
        spans[entity] = np.concatenate(
            [np.arange(o, o + c) for o, c in zip(index.offsets, index.counts)]
        )
    order = np.concatenate(
        [
            spans[entity]
            for entity in sorted(
                spans,
                key=lambda e: (int(hilbert_key(int(arrays.cells[spans[e][0]]))), e),
            )
        ]
    )
    expected = {
        name: getattr(arrays, name)[order].tobytes()
        for name in ("cells", "slots", "idf")
    }
    corpus.spill(tmp_path / "spilled", chunk_rows=8)
    spilled = corpus.arrays()
    assert {
        name: np.asarray(getattr(spilled, name)).tobytes() for name in expected
    } == expected
    stats = corpus.memory_stats()
    assert stats["flat_live"] == stats["flat_entries"] == len(order)
    # The directories were rebased onto the packed layout.
    cursor = 0
    for entity in sorted(
        spans, key=lambda e: int(corpus.window_index(e).offsets[0])
    ):
        index = corpus.window_index(entity)
        assert index.offsets.tolist() == (
            cursor + np.concatenate(([0], np.cumsum(index.counts)[:-1]))
        ).tolist()
        cursor += int(index.counts.sum())


def _boom(*args, **kwargs):
    raise RuntimeError("injected mid-relink failure")


@pytest.mark.parametrize("case_type", [_LinkerCase, _DiskLinkerCase])
def test_the_rollback_capture_is_by_reference(case_type, tmp_path, monkeypatch):
    """What ``relink()`` pays per call: no pickling, no deep copy — the
    histories, the corpus arrays and id dict and the score cache's
    records in the capture *are* the live ones (disk-mode flats: the live
    memmaps)."""
    linker = case_type().build(tmp_path)
    monkeypatch.setattr(pickle, "dumps", _boom)
    monkeypatch.setattr(copy, "deepcopy", _boom)
    state = linker.checkpoint()
    monkeypatch.undo()
    for side, corpus in linker._corpora.items():
        captured, arrays = state["corpora"][side], corpus.arrays()
        columns = captured["flats"]["columns"]
        assert columns["cells"] is arrays.cells
        assert columns["slots"] is arrays.slots
        assert columns["keys"] is arrays.keys
        assert captured["cell_table"] is corpus.cell_table()
        for entity, history in linker._sides[side].items():
            assert state["sides"][side][entity] is history
        for name in (*_ROW_COLUMNS, "directory", "row_of"):
            assert captured[name] is getattr(corpus, "_" + name)
    records = linker.score_cache._records
    assert records and set(state["score_cache"].records) == set(records)
    for space, record in records.items():
        assert state["score_cache"].records[space] is record


# ----------------------------------------------------------------------
# completeness: everything _relink_once mutates is inside the capture
# ----------------------------------------------------------------------
def _fields(linker):
    """``vars(linker)`` with the LSH index read by id
    (:func:`lsh_calls.state`): its rows are indexed by the score cache's
    entity codes, which a restored linker numbers afresh."""
    fields = dict(vars(linker))
    if linker._lsh_index is not None:
        fields["_lsh_index"] = lsh_state(
            linker._lsh_index, linker.score_cache.entities
        )
    return fields


def _fingerprint(value):
    """Deep, order-insensitive-for-dicts structural fingerprint of
    ``vars()``, by value.  Histories and the score cache are read through
    their logical content: histories memoise derived bins/trees on
    demand, and the cache's key order and row numbering (and its
    per-entity key index) are allocation detail its capture deliberately
    drops.  The pair table, a record of arrays, is read field by field."""
    if isinstance(value, MobilityHistory):
        return (
            "history",
            value.entity_id,
            value.version,
            value.num_records,
            _fingerprint(value.bins(value.storage_level)),
        )
    if isinstance(value, ScoreCache):
        state = value.checkpoint()
        return (
            "score-cache",
            _fingerprint((_entries(state), state["hits"], state["misses"])),
        )
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return (
            "dict",
            sorted(((repr(k), _fingerprint(v)) for k, v in value.items())),
        )
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_fingerprint(item) for item in value])
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(repr(item) for item in value))
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _fingerprint(vars(value)))
    return value


def _table_invariants(linker):
    """After a committed relink the pair table is a view of the cache:
    its pairs strictly ascending, its three arrays aligned, every pair
    scored, and the cache holding every pair in the linker's space under
    both endpoints' current versions."""
    table = linker._pair_table
    assert (np.diff(table.pairs) > 0).all()
    assert {len(table.left_size), len(table.right_size)} == {len(table)}
    assert (table.left_size >= 0).all() and (table.right_size >= 0).all()
    left, right = linker._corpora["left"], linker._corpora["right"]
    space = score_cache_space(left, right, linker.config.similarity)
    cache = linker._score_cache
    lefts, rights = split_codes(table.pairs)
    held, stale, _, _ = cache._holds(
        space, table.pairs,
        cache.entities.spread(0, left.history_versions, lefts),
        cache.entities.spread(1, right.history_versions, rights),
    )
    assert held.all() and not stale.any()


def test_every_attribute_a_relink_mutates_is_captured(tmp_path, relink_failures):
    linker = _LinkerCase().build(tmp_path)
    before = _fingerprint(_fields(linker))
    table = linker._pair_table

    # After a failed relink + rollback: nothing moved — wherever the
    # failure lands: with retention applied, with the LSH index
    # half-updated, with the re-scored rows stored, or in the last stages
    # after every layer has mutated.
    for point in relink_failures.points:
        with relink_failures(point), pytest.raises(relink_failures.Boom):
            linker.relink()
        assert _fingerprint(_fields(linker)) == before, point
        assert linker._pair_table is table
        _rows_invariants(linker._score_cache)

    # After save + restore: a different process's linker, same state —
    # but for the derived pair table, which a restored linker starts
    # empty.
    def captured(subject):
        return _fingerprint(
            {k: v for k, v in _fields(subject).items() if k != "_pair_table"}
        )

    before_captured = captured(linker)
    linker.save(tmp_path / "snaps")
    restored = StreamingLinker.restore(tmp_path / "snaps", strict=True)
    assert captured(restored) == before_captured

    # The check has teeth: a relink that commits moves the fingerprint,
    # and everything it moved is a captured field (or the derived table).
    after_commit = linker.checkpoint()
    linker.relink()
    _table_invariants(linker)
    moved = {
        name
        for name, value in _fields(linker).items()
        if _fingerprint(value) != dict(before[1])[repr(name)]
    }
    assert moved >= {
        "_corpora", "_score_cache", "_lsh_index", "_last_relink", "_pair_table"
    }
    linker._restore(after_commit)
    assert captured(linker) == before_captured


# ----------------------------------------------------------------------
# the cache's keyed rows, against a dict
# ----------------------------------------------------------------------
_KEYS = st.tuples(st.sampled_from("st"), st.sampled_from("abc"), st.sampled_from("xyz"))
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"), _KEYS, st.integers(0, 2), st.floats(-9, 9),
            st.integers(-9, 9),
        ),
        st.tuples(st.just("remove"), st.integers(0, 99)),
        st.tuples(
            st.just("sweep"), st.sampled_from("abc"), st.sampled_from("xyz"),
            st.sampled_from([None, "s", "t"]),
        ),
        st.tuples(st.just("hit"), st.integers(0, 99)),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _asked(store, key, version):
    """One key looked up with ``version`` as its left history version."""
    hit, batch = store.lookup_batch(
        key[0], store.entities.pair_codes([key[1:]]), np.array([version]),
        np.array([0]),
    )
    return hit[0], tuple(column[0].item() for column in batch)


def _apply(store, model, op):
    """One op on the store and on the model dict ``{(space, left,
    right): values per column}``."""
    kind = op[0]
    if kind == "put":  # a store: over the key's old values, or a new row
        _, key, version, value, count = op
        store.store_batch(
            key[0], store.entities.pair_codes([key[1:]]), np.array([version]),
            np.array([0]), np.array([value]), np.array([count]), np.array([0]),
            np.array([0]),
        )
        model[key] = (version, 0, value, count, 0, 0)
    elif kind == "remove" and model:  # a lookup under other versions
        key = sorted(model)[op[1] % len(model)]
        assert not _asked(store, key, model[key][0] + 1)[0]
        del model[key]
    elif kind == "sweep":  # an invalidate_pairs, scoped or not
        _, left, right, space = op
        swept = [
            key for key in model
            if (key[1] == left or key[2] == right) and space in (None, key[0])
        ]
        codes = store.entities.codes({left}, {right})
        assert store.invalidate_pairs(*codes, space=space) == len(swept)
        for key in swept:
            del model[key]
    elif kind == "hit" and model:  # a lookup that writes nothing
        key = sorted(model)[op[1] % len(model)]
        assert _asked(store, key, model[key][0]) == (True, model[key][2:])
    elif kind == "clear":
        store.clear()
        model.clear()


def _capture_holds(store, model):
    """The store's capture, read as a mapping, is columns — every value
    an array, the space list or a scalar — and, pickled and restored into
    a fresh store, holds what the dict holds."""
    capture = dict(store.checkpoint())
    assert type(capture.pop("spaces")) is list
    for name, value in capture.items():
        assert isinstance(value, (np.ndarray, int)), name
    fresh = ScoreCache()
    fresh.restore(pickle.loads(pickle.dumps(store.checkpoint())))
    _rows_invariants(fresh)
    assert capture_rows(fresh.checkpoint()) == model
    assert (fresh.hits, fresh.misses) == (store.hits, store.misses)


@settings(max_examples=150, deadline=None)
@given(_OPS, st.integers(0, 60), st.integers(0, 60), st.booleans())
def test_keyed_rows_follow_a_dict_through_any_transaction(ops, begin, end, restore):
    """Random stores / stale drops / scoped and unscoped sweeps / hits /
    clears, with one ``checkpoint()`` taken at a random step and restored
    (or not) at a later one: after every step the store holds what a
    plain dict holds and its records are sound, and so does a fresh
    store restored from its pickled capture; a restore puts back, bit
    for bit, what the checkpoint saw."""
    begin, end = sorted((min(begin, len(ops)), min(end, len(ops))))
    store, model = ScoreCache(), {}
    for position, op in enumerate(ops + [None]):
        if position == begin:
            capture, before, saved = store.checkpoint(), _bits(store), dict(model)
        if position == end and restore:
            store.restore(capture)
            model = saved
            assert _bits(store) == before
        if op is not None:
            _apply(store, model, op)
        _rows_invariants(store)
        assert capture_rows(store.checkpoint()) == model
        _capture_holds(store, model)
