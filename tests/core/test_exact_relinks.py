"""Exact relinks only: a relink never tolerates IDF drift and the score
cache never evicts for space, so neither object takes a knob for it and
neither module keeps the bookkeeping those knobs needed (per-bin drift
accumulators; LRU order, per-row stamps, eviction).

What remains is stateless: which cached pair totals a corpus delta
invalidates depends on that delta alone, and a cache hit writes
nothing.  The same delta is the one record of what a relink changed:
the LSH upkeep reads it too, so the linker keeps no LSH member versions
of its own.  State written while the knobs or those versions existed
still restores: a linker snapshot carrying a tolerance and drift
accumulators, or ``lsh_members`` with a retired id's ``-1``, and a cache
payload carrying ``cap`` with its keys in LRU order, all load and then
relink exactly like a linker that never went through them.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.core.corpus import CorpusDelta, HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.score_cache import ScoreCache
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.lsh import LshConfig
from repro.pipeline import LinkageConfig, LinkagePipeline
from repro.store import SNAPSHOT_FORMAT
from repro.store.snapshot import write_snapshot
from repro.temporal import Windowing

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"


def _tree(module):
    return ast.parse((CORE / module).read_text())


def _identifiers(module):
    """Every name ``core/<module>`` defines, imports or reads."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


@pytest.fixture()
def linker():
    """Per side: two entities sharing one bin, a third elsewhere."""
    linker = StreamingLinker(origin=0.0)
    for side, names in (("left", "abc"), ("right", "vwx")):
        linker.observe(side, [
            Record(names[0], 37.77, -122.42, 10.0),
            Record(names[1], 37.77, -122.42, 20.0),
            Record(names[2], 40.71, -74.00, 30.0),
        ])
    linker.relink()
    return linker


def _first_bin(linker, side, entity):
    corpus = linker._corpora[side]
    window, cells = next(iter(corpus.history(entity).bins(corpus.level).items()))
    return (window, cells[0])


class TestNoToleranceNoCap:
    def test_constructors_take_neither_knob(self):
        assert "cap" not in inspect.signature(ScoreCache).parameters
        parameters = inspect.signature(StreamingLinker).parameters
        assert not {"idf_tolerance", "score_cache_cap"} & set(parameters)
        with pytest.raises(TypeError):
            ScoreCache(cap=8)
        with pytest.raises(TypeError):
            StreamingLinker(0.0, idf_tolerance=0.0)

    def test_the_cache_keeps_no_lru_bookkeeping(self):
        gone = {"_cap", "_stamp", "stamps", "_clock", "_rerank", "_evict_lru",
                "OrderedDict", "move_to_end"}
        assert not gone & _identifiers("score_cache.py")

    def test_the_linker_keeps_no_drift_accumulators(self):
        gone = {"idf_tolerance", "_pending_drift", "_pending_global"}
        assert not gone & _identifiers("streaming.py")

    def test_captures_carry_neither_knob(self, linker):
        assert set(linker.score_cache.checkpoint()) == {
            "keys", "columns", "hits", "misses"
        }
        assert not {"idf_tolerance", "pending_drift", "pending_global"} & set(
            linker.checkpoint()
        )


class TestNoSecondChangeDetector:
    def test_the_linker_keeps_no_member_versions(self):
        assert not {"_lsh_members", "STALE_VERSION"} & _identifiers("streaming.py")
        assert "lsh_members" not in {
            node.value
            for node in ast.walk(_tree("streaming.py"))
            if isinstance(node, ast.Constant)
        }

    def test_history_defines_no_stale_version(self):
        assert "STALE_VERSION" not in _identifiers("history.py")

    def test_lsh_upkeep_walks_no_mapping(self):
        """``_lsh_update`` reads the deltas it is handed; it does not
        scan a sides or histories mapping for what changed."""
        (update,) = [
            node
            for node in ast.walk(_tree("streaming.py"))
            if isinstance(node, ast.FunctionDef) and node.name == "_lsh_update"
        ]
        assert "items" not in {
            node.func.attr
            for node in ast.walk(update)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }


class TestStatelessInvalidation:
    def test_refresh_reports_exactly_the_drifted_shared_bins(self):
        windowing = Windowing(0.0, 900.0)

        def history(entity, t, lat, lng):
            return MobilityHistory.from_columns(
                entity, np.array([t]), np.array([lat]), np.array([lng]),
                windowing, 12,
            )

        histories = {
            "a": history("a", 10.0, 37.77, -122.42),
            "b": history("b", 20.0, 37.77, -122.42),
            "c": history("c", 2000.0, 37.90, -122.10),
        }
        corpus = HistoryCorpus(histories, 12)
        # "c" joins the bin "a" and "b" share: its df moves 2 -> 3.
        histories["c"].extend(np.array([30.0]), np.array([37.77]), np.array([-122.42]))
        delta = corpus.refresh()
        window, cells = next(iter(histories["a"].bins(12).items()))
        assert delta.idf_drift == ((window, cells[0]),)
        assert delta.global_drift == 0.0

    @pytest.mark.parametrize("side, holders", [("left", "ab"), ("right", "vw")])
    def test_bin_drift_affects_the_clean_holders_every_time(
        self, linker, side, holders
    ):
        dirty, clean = holders
        drifted = CorpusDelta((dirty,), (_first_bin(linker, side, clean),))
        for _ in range(2):  # nothing accumulates between calls
            assert linker._idf_affected(side, drifted) == {clean}
        assert linker._idf_affected(side, CorpusDelta((dirty,))) == set()

    def test_a_corpus_size_change_affects_every_clean_entity(self, linker):
        resized = CorpusDelta(("a",), (), global_drift=0.1)
        assert linker._idf_affected("left", resized) == {"b", "c"}

    def test_a_hit_writes_nothing(self):
        cache = ScoreCache()
        for left in ("a", "b"):
            cache.store("s", left, "x", 0, 0, 1.0, 1, 1, 0)
        directory, mutations = list(cache._rows.items()), cache._mutations
        cache.lookup("s", "a", "x", 0, 0)
        cache.lookup_batch("s", [("a", "x")], np.array([0]), np.array([0]))
        assert list(cache._rows.items()) == directory
        assert (cache.hits, cache._mutations) == (2, mutations)


def _observe(linker, rounds, entities=range(12)):
    for round_index in rounds:
        for side, jitter in (("left", 0.0), ("right", 1.1e-4)):
            linker.observe(side, [
                Record(
                    f"e{i}",
                    37.6 + (i % 4) * 0.01 + jitter,
                    -122.4 + (i // 4) * 0.01 + jitter,
                    round_index * 3600.0 + (i * 7) % 3500 + 10.0,
                )
                for i in entities
            ])


def _parent_shaped_cache(capture):
    """A cache capture as a capped cache wrote it: a ``cap`` entry and
    the keys in LRU order (here: reversed), columns gathered alike."""
    return {
        "cap": None,
        "keys": capture["keys"][::-1],
        "columns": tuple(column[::-1] for column in capture["columns"]),
        "hits": capture["hits"],
        "misses": capture["misses"],
    }


def _storage(storage, directory):
    if storage == "memory":
        return {}
    return {"storage": "disk", "store_dir": directory, "store_chunk_rows": 8}


LSH_CONFIG = LinkageConfig(
    lsh=LshConfig(threshold=0.3, step_windows=8, spatial_level=14)
)


def _retire_and_return(linker):
    """``e0`` leaves the left side and, before the next relink, comes
    back on ``e6``'s trail: other bins under the version it left at (one
    observe per round either way), which only the stale mark tells
    apart."""
    version = linker._sides["left"]["e0"].version
    linker.retire("left", ["e0"])
    for round_index in range(3):
        linker.observe(
            "left", [Record("e0", 37.62, -122.39, round_index * 3600.0 + 52.0)]
        )
    assert linker._sides["left"]["e0"].version == version


class TestParentShapedState:
    @pytest.mark.parametrize("tolerance", [0.0, 10.0])
    @pytest.mark.parametrize("storage", ["memory", "disk"])
    def test_linker_snapshot_with_tolerance_and_drift_relinks_exactly(
        self, tmp_path, storage, tolerance
    ):
        """Whatever tolerance the snapshot recorded, and whatever drift
        it had left pending, the restored linker relinks exactly."""
        assert SNAPSHOT_FORMAT == 4
        writer = StreamingLinker(0.0, **_storage(storage, tmp_path / "writer"))
        _observe(writer, range(3))
        writer.relink()
        state = writer.checkpoint()
        cache = _parent_shaped_cache(state.pop("score_cache"))
        state["idf_tolerance"] = tolerance
        state["pending_drift"] = {
            "left": {_first_bin(writer, "left", "e0"): tolerance / 2},
            "right": {},
        }
        state["pending_global"] = {"left": tolerance / 2, "right": 0.0}
        write_snapshot(
            tmp_path / "snaps",
            {"state": state, "score_cache": cache},
            watermark=writer.watermark,
        )

        restored = StreamingLinker.restore(
            tmp_path / "snaps",
            strict=True,
            **_storage(storage, tmp_path / "reader"),
        )
        assert len(restored.score_cache) == len(writer.score_cache)
        hits = restored.score_cache.hits
        for subject in (writer, restored):
            # Three entities move on, one of them into e3's and e7's bin: shared
            # document frequencies drift.
            _observe(subject, [3], entities=range(3))
            subject.observe("left", [Record("e2", 37.63, -122.4, 10.0)])
        expected, resumed = writer.relink(), restored.relink()
        assert restored.score_cache.hits > hits  # the old rows were served
        assert writer.last_relink.idf_invalidated > 0
        assert restored.last_relink == writer.last_relink
        assert (restored.score_cache.hits, restored.score_cache.misses) == (
            writer.score_cache.hits,
            writer.score_cache.misses,
        )

        cold = StreamingLinker(0.0)
        _observe(cold, range(3))
        _observe(cold, [3], entities=range(3))
        cold.observe("left", [Record("e2", 37.63, -122.4, 10.0)])
        reference = cold.relink()
        for report in (expected, resumed):
            assert dict(report.links) == dict(reference.links)
            assert report.link_scores == reference.link_scores

    def test_capped_cache_file_loads_and_serves_like_a_current_one(
        self, cab_pair, tmp_path
    ):
        pipeline = LinkagePipeline(LinkageConfig())
        filled = ScoreCache()
        cold = pipeline.run(cab_pair.left, cab_pair.right, score_cache=filled)
        write_snapshot(
            tmp_path / "parent",
            {"score_cache": _parent_shaped_cache(filled.checkpoint())},
        )
        runs = []
        for cache in (
            ScoreCache.load(tmp_path / "parent"),
            ScoreCache.load(filled.save(tmp_path / "current")),
        ):
            misses = cache.misses
            report = pipeline.run(cab_pair.left, cab_pair.right, score_cache=cache)
            assert cache.misses == misses  # nothing re-scored
            assert report.links == cold.links
            assert report.edges == cold.edges
            runs.append((len(cache), cache.hits, cache.misses))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("storage", ["memory", "disk"])
    def test_snapshot_with_a_stale_lsh_member_relinks_exactly(
        self, tmp_path, storage
    ):
        writer = StreamingLinker(
            0.0, LSH_CONFIG, **_storage(storage, tmp_path / "writer")
        )
        _observe(writer, range(3))
        writer.relink()
        # What a linker with its own member scan held after that relink,
        # and the mark its retire() left for the id.
        members = {
            side: {
                entity: history.version
                for entity, history in writer._sides[side].items()
            }
            for side in ("left", "right")
        }
        _retire_and_return(writer)
        members["left"]["e0"] = -1
        state = writer.checkpoint()
        cache = state.pop("score_cache")
        state["lsh_members"] = members
        write_snapshot(
            tmp_path / "snaps",
            {"state": state, "score_cache": cache},
            watermark=writer.watermark,
        )

        restored = StreamingLinker.restore(
            tmp_path / "snaps",
            strict=True,
            **_storage(storage, tmp_path / "reader"),
        )
        expected, resumed = writer.relink(), restored.relink()
        assert not writer.last_relink.lsh_rebuilt
        assert writer.last_relink.dirty_left == 1
        assert restored.last_relink == writer.last_relink
        assert (restored.score_cache.hits, restored.score_cache.misses) == (
            writer.score_cache.hits,
            writer.score_cache.misses,
        )
        assert restored.memory_stats() == writer.memory_stats()

        cold = StreamingLinker(0.0, LSH_CONFIG)
        _observe(cold, range(3))
        _retire_and_return(cold)
        reference = cold.relink()
        candidates = set(cold._pair_table._rows)
        assert ("e0", "e6") in candidates
        for linker in (writer, restored):
            assert set(linker._pair_table._rows) == candidates
        for report in (expected, resumed):
            assert dict(report.links) == dict(reference.links)
            assert report.link_scores == reference.link_scores
