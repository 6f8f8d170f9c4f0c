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
cache's pair -> values mapping, per-entity array slices, bucket tables,
column bytes) is compared with ``==``, never ``approx``.

Plus a completeness check on the linker: every attribute
``_relink_once`` mutates is inside the capture.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.corpus import HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.score_cache import ScoreCache
from repro.core.streaming import StreamingLinker, _PairTable
from repro.data import Record
from repro.lsh.index import LshConfig, LshIndex
from repro.lsh.signature import build_signature
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
            corpus.spill(tmp / "store", chunk_rows=8, cache_chunks=2)
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
            corpus.spill(self._respill, chunk_rows=8, cache_chunks=2)

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
    """A score-cache capture as ``{by(key): column values}``: key order
    is not cache state."""
    return dict(
        zip(
            map(by, capture["keys"]),
            zip(*(column.tolist() for column in capture["columns"])),
        )
    )


class _ScoreCacheCase:
    @staticmethod
    def _store(cache, space, k, version=0):
        cache.store(space, f"u{k}", f"v{k % 4}", version, 0, raw=k / 7.0,
                    bin_comparisons=k, common_windows=k % 3, alibi_bin_pairs=k % 2)

    def build(self, tmp):
        cache = ScoreCache()
        for k in range(12):
            self._store(cache, "a" if k % 2 else ("b", 1), k)
        cache.lookup("a", "u7", "v3", 0, 0)  # hit
        cache.lookup("a", "u9", "v1", 5, 0)  # stale: evicted, a free row
        cache.invalidate_pairs({"u10"}, set(), space=("b", 1))
        cache.invalidate_pairs(set(), {"v3"}, space=None)
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
        cache.lookup(("b", 1), "u6", "v2", 0, 0)  # hit
        for k in range(20, 31):
            self._store(cache, "c", k)
        cache.invalidate_pairs({"u5", "u8"}, set())
        cache.lookup("a", "u5", "v1", 0, 0)
        self._store(cache, "c", 30, version=1)  # over an existing key
        cache.lookup_batch(  # a hit, a stale row dropped
            "c", [("u29", "v1"), ("u28", "v0")], np.array([0, 3]), np.array([0, 0])
        )

    def proceed(self, cache):
        self._store(cache, "a", 13)
        self._store(cache, ("b", 1), 4, version=2)
        batch = cache.lookup_batch(
            "a",
            [("u5", "v1"), ("u13", "v1"), ("u1", "v1"), ("nobody", "v0")],
            np.array([0, 0, 0, 0]),
            np.array([0, 0, 0, 0]),
        )
        return (
            len(cache),
            cache.hits,
            cache.misses,
            _entries(cache.checkpoint()),
            [column.tolist() for column in dataclasses.astuple(batch)],
            cache.lookup(("b", 1), "u4", "v0", 2, 0),
        )


class _LshIndexCase:
    config = LshConfig(threshold=0.3, step_windows=4, spatial_level=LEVEL)

    def _spec(self, windows=24):
        return self.config.signature_spec(windows)

    def build(self, tmp):
        histories = _histories(12, range(6))
        index = LshIndex(self.config, self._spec())
        left = {k: v for k, v in histories.items() if int(k[1:]) % 2}
        right = {k: v for k, v in histories.items() if not int(k[1:]) % 2}
        index.add_histories(left, right)
        index.remove("e3", "left")
        index.candidate_pairs()
        self._histories_ = histories
        return index

    def checkpoint(self, index):
        return index.checkpoint()

    def restore(self, index, state):
        index.restore(state)

    def fresh(self, state, tmp):
        # Deliberately a different layout: restore adopts the captured spec.
        return LshIndex(self.config, self._spec(windows=8))

    def after_restart(self, index):
        pass

    def disturb(self, index):
        for entity in ("e1", "e5"):
            index.remove(entity, "left")
        index.add("ghost", build_signature(self._histories_["e2"], index.spec), "left")
        index.candidate_pairs()

    def proceed(self, index):
        index.update_spec(self._spec(windows=23))
        index.remove("e4", "right")
        index.add("e3", build_signature(self._histories_["e3"], index.spec), "left")
        pairs = index.candidate_pairs()
        return (sorted(pairs), index.num_bands, index.checkpoint())


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

    def fresh(self, state, tmp):
        # A restart finds the directory as the crashed process left it.
        return ChunkedColumnStore.open(tmp / "store")

    def after_restart(self, store):
        pass

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
            "store_cache_chunks": 2,
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


def _cache_invariants(cache):
    """What the capture drops must still be sound: every allocated row
    is live or free exactly once, and the per-entity key index matches
    the directory."""
    rows = list(cache._rows.values())
    assert sorted(rows + cache._free) == list(range(cache._high))
    for by_entity, position in ((cache._by_left, 1), (cache._by_right, 2)):
        expected = {}
        for key in cache._rows:
            expected.setdefault(key[position], set()).add(key)
        assert by_entity == expected


@pytest.mark.parametrize("name", ["score-cache", "lsh-index"])
@pytest.mark.parametrize("outcome", ["rolled-back", "committed"])
def test_a_transaction_is_all_or_nothing(name, outcome, tmp_path):
    """The journal flavour of the same protocol (what ``relink()`` opens
    instead of a full capture): undone, the component continues like a
    twin that was never disturbed; committed, like a twin disturbed
    outside any transaction — the journal itself leaves no trace."""
    case = CASES[name]()
    twin = case.build(tmp_path / "twin")
    if outcome == "committed":
        case.disturb(twin)
    expected = case.proceed(twin)

    subject = case.build(tmp_path / "subject")
    journal = subject._begin()
    case.disturb(subject)
    if outcome == "committed":
        subject._commit()
    else:
        subject.restore(journal)
    assert subject._journal is None
    if name == "score-cache":
        _cache_invariants(subject)
    assert case.proceed(subject) == expected
    if name == "score-cache":
        _cache_invariants(subject)


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
            "store_cache_chunks": 2,
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
    corpus.spill(tmp_path / "spilled", chunk_rows=8, cache_chunks=2)
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
    histories and the corpus arrays in the capture *are* the live ones
    (disk-mode flats: the live memmaps)."""
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
        for entity, index in captured["window_index"].items():
            assert index is corpus.window_index(entity)


# ----------------------------------------------------------------------
# completeness: everything _relink_once mutates is inside the capture
# ----------------------------------------------------------------------
def _fingerprint(value):
    """Deep, order-insensitive-for-dicts structural fingerprint of
    ``vars()``, by value.  Histories, the score cache, the LSH index and
    the pair table are read through their logical content: histories
    memoise derived bins/trees on demand, the cache's key order and row
    numbering (and its per-entity key index) are allocation detail its
    capture deliberately drops, the index's maintained pair set is re-derived
    from its buckets, and a pair table says something only while it is
    resident — one the cache has moved past is as good as empty, which
    is exactly what a restored linker starts with."""
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
    if isinstance(value, LshIndex):
        return ("lsh-index", _fingerprint(value.checkpoint()))
    if isinstance(value, _PairTable):
        return (
            "pair-table",
            _fingerprint(value.content() if value.resident else {}),
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


def test_every_attribute_a_relink_mutates_is_captured(tmp_path, relink_failures):
    linker = _LinkerCase().build(tmp_path)
    before = _fingerprint(vars(linker))
    assert linker._pair_table.resident

    # After a failed relink + rollback: nothing moved — wherever the
    # failure lands: with retention applied, with the LSH index
    # half-updated, with the re-scored rows stored, or in the last stages
    # after every layer has mutated.
    for point in relink_failures.points:
        with relink_failures(point), pytest.raises(relink_failures.Boom):
            linker.relink()
        assert _fingerprint(vars(linker)) == before, point
        assert linker._score_cache._journal is None
        assert linker._lsh_index._journal is None
        assert linker._pair_table._journal is None

    # After save + restore: a different process's linker, same state —
    # but for the derived pair table, which a restored linker starts
    # empty.
    def captured(subject):
        return _fingerprint(
            {k: v for k, v in vars(subject).items() if k != "_pair_table"}
        )

    before_captured = captured(linker)
    linker.save(tmp_path / "snaps")
    restored = StreamingLinker.restore(tmp_path / "snaps", strict=True)
    assert captured(restored) == before_captured

    # The check has teeth: a relink that commits moves the fingerprint,
    # and everything it moved is a captured field (or the derived table).
    after_commit = linker.checkpoint()
    linker.relink()
    moved = {
        name
        for name, value in vars(linker).items()
        if _fingerprint(value) != dict(before[1])[repr(name)]
    }
    assert moved >= {
        "_corpora", "_score_cache", "_lsh_index", "_last_relink", "_pair_table"
    }
    linker._restore(after_commit)
    assert captured(linker) == before_captured
