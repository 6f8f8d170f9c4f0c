"""Exact relinks only: a relink never tolerates IDF drift and the score
cache never evicts for space, so neither object takes a knob for it and
neither module keeps the bookkeeping those knobs needed (per-bin drift
accumulators; LRU order, per-row stamps, eviction).

What remains is stateless: which cached pair totals a corpus delta
invalidates depends on that delta alone, and a cache hit writes
nothing.  The same delta is the one record of what a relink changed:
the LSH upkeep reads it too, so the linker keeps no LSH member versions
of its own.
"""

import ast
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest

from cache_calls import lookup, store
from repro.core.corpus import HistoryCorpus
from repro.core.history import MobilityHistory
from repro.core.score_cache import ScoreCache
from repro.core.streaming import StreamingLinker
from repro.data import Record
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


def _refresh_after(linker, side, entity, lat, lng, t):
    """Grow ``entity`` by one record on ``side`` and refresh that side's
    corpus: the delta the next relink would read."""
    linker.observe(side, [Record(entity, lat, lng, t)])
    return linker._corpora[side].refresh()


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
            "spaces", "left_ids", "right_ids", "owners", *ScoreCache._COLUMNS,
            "hits", "misses",
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
        # "c" joins the bin "a" and "b" share: its df moves 2 -> 3 at the
        # same |U_E|, so exactly its two clean holders are affected.
        histories["c"].extend(np.array([30.0]), np.array([37.77]), np.array([-122.42]))
        delta = corpus.refresh()
        assert delta.dirty_entities == ("c",)
        assert delta.idf_affected == ("a", "b")

    @pytest.mark.parametrize("side, holders", [("left", "ab"), ("right", "vw")])
    def test_bin_drift_affects_the_clean_holders_every_time(
        self, linker, side, holders
    ):
        first, second = holders
        (third,) = set(linker._corpora[side].entities) - set(holders)
        # The third entity joins the holders' bin: both clean holders.
        delta = _refresh_after(linker, side, third, 37.77, -122.42, 40.0)
        assert delta.idf_affected == (first, second)
        # A holder joins the third's bin: only its clean holder — nothing
        # is carried over from the refresh before.
        delta = _refresh_after(linker, side, first, 40.71, -74.00, 50.0)
        assert delta.idf_affected == (third,)
        # A bin of its own moves no shared df: nobody.
        delta = _refresh_after(linker, side, first, 10.0, 10.0, 60.0)
        assert delta.dirty_entities == (first,)
        assert delta.idf_affected == ()

    def test_a_corpus_size_change_affects_every_clean_entity(self, linker):
        linker.observe("left", [Record("a", 37.77, -122.42, 40.0),
                                Record("d", 10.0, 10.0, 50.0)])
        delta = linker._corpora["left"].refresh()
        assert delta.dirty_entities == ("a", "d")
        assert delta.idf_affected == ("b", "c")

    def test_a_hit_writes_nothing(self):
        cache = ScoreCache()
        for left in ("a", "b"):
            store(cache, "s", left, "x", 0, 0, 1.0)
        directory = dict(cache.checkpoint())
        lookup(cache, "s", "a", "x", 0, 0)
        pairs = cache.entities.pair_codes([("a", "x")])
        cache.lookup_batch("s", pairs, np.array([0]), np.array([0]))
        after = dict(cache.checkpoint())
        assert after.pop("hits") == 2 and directory.pop("hits") == 0
        assert pickle.dumps(after) == pickle.dumps(directory)
