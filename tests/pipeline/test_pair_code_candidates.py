"""Built-in candidate stages hand the scoring stage pair codes.

``"brute"`` and ``"lsh"`` return their pairs as ascending codes over each
side's sorted ids; the scoring stage codes each side once in the engine's
entity tables and gathers ids for the positive pairs only, so no stage
codes a candidate pair by pair (``EntityTables.pair_codes``).  A custom
stage keeps the ``(left id, right id)`` contract and is coded once at the
stage boundary — with the same links, scores, edges and counters.  Read
back, ``context.candidates`` is still the sorted id pairs.
"""

import pytest

from repro.core.corpus import HistoryCorpus
from repro.core.score_cache import EntityTables
from repro.core.similarity import SimilarityConfig, SimilarityEngine
from repro.core.streaming import StreamingLinker
from repro.exec import create_executor
from repro.lsh.index import LshConfig
from repro.pipeline import (
    LinkageConfig,
    LinkageContext,
    LinkagePipeline,
    candidate_stages,
)
from repro.pipeline.stages import BruteForceCandidates, CandidateStage, LshCandidates

LSH = LshConfig(threshold=0.3, step_windows=48, spatial_level=14)


def _configs(cab_pair, sm_pair):
    return [
        (cab_pair, LinkageConfig(candidates="brute"), BruteForceCandidates),
        (sm_pair, LinkageConfig(lsh=LSH), LshCandidates),
    ]


def _refused(*args, **kwargs):
    raise AssertionError("a candidate pair was coded on its own")


@pytest.fixture()
def no_per_pair_coding(monkeypatch):
    monkeypatch.setattr(EntityTables, "pair_codes", _refused)


def _outcome(report):
    return (
        report.links, report.link_scores, list(report.edges),
        report.matched_edges, report.stats, report.candidate_pairs,
    )


def test_lsh_and_brute_never_code_a_pair_on_its_own(
    cab_pair, sm_pair, no_per_pair_coding
):
    for pair, config, _ in _configs(cab_pair, sm_pair):
        report = LinkagePipeline(config).run(pair.left, pair.right)
        assert report.links and report.candidate_pairs


def test_streaming_brute_recodes_without_per_pair_coding(cab_pair, no_per_pair_coding):
    origin = min(cab_pair.left.time_range()[0], cab_pair.right.time_range()[0])
    linker = StreamingLinker(origin=origin, config=LinkageConfig(candidates="brute"))
    linker.observe("left", cab_pair.left.records())
    linker.observe("right", cab_pair.right.records())
    report = linker.relink()
    assert report.candidate_pairs == (
        cab_pair.left.num_entities * cab_pair.right.num_entities
    )


@pytest.mark.parametrize("as_list", [False, True], ids=["set", "sorted-list"])
def test_a_custom_stage_of_id_pairs_scores_the_same(cab_pair, sm_pair, as_list):
    for pair, config, builtin in _configs(cab_pair, sm_pair):

        class IdPairs(CandidateStage):
            def generate(self, context):
                pairs = builtin(self.config).generate(context)
                return list(pairs) if as_list else set(pairs)

        candidate_stages.register("id-pairs")(IdPairs)
        try:
            custom = LinkagePipeline(config.without(candidates="id-pairs"))
            got = custom.run(pair.left, pair.right)
        finally:
            candidate_stages.unregister("id-pairs")
        want = LinkagePipeline(config).run(pair.left, pair.right)
        assert _outcome(got) == _outcome(want)


def test_candidates_read_back_as_sorted_id_pairs(cab_pair, sm_pair):
    for pair, config, _ in _configs(cab_pair, sm_pair):
        context = LinkageContext(config=config, left=pair.left, right=pair.right)
        LinkagePipeline(config).execute(context)
        candidates = context.candidates
        rows = list(candidates)
        assert rows == sorted(rows) and len(candidates) == len(rows)
        assert candidates == rows and candidates[0] == rows[0]
        assert all(isinstance(left, str) for left, _ in rows)
        if config.candidates == "brute":
            assert rows == [
                (left, right)
                for left in sorted(pair.left.entities)
                for right in sorted(pair.right.entities)
            ]


def test_a_cacheless_batch_reads_no_history_version(cab_pair, sm_pair, monkeypatch):
    def refused(self, entity_ids):
        raise AssertionError("history versions read without a cache")

    monkeypatch.setattr(HistoryCorpus, "history_versions", refused)
    for pair, config, _ in _configs(cab_pair, sm_pair):
        assert LinkagePipeline(config).run(pair.left, pair.right).links


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_an_unknown_id_fails_before_any_block_without_a_version_read(
    cab_pair, monkeypatch, backend
):
    """The cacheless route reads no version, so the size read is what
    turns an unknown id into a ``KeyError`` before anything is scored."""
    monkeypatch.setattr(
        HistoryCorpus, "history_versions", lambda self, ids: pytest.fail("read")
    )
    config = LinkageConfig()
    context = LinkageContext(config=config, left=cab_pair.left, right=cab_pair.right)
    LinkagePipeline(config).execute(context)
    engine = SimilarityEngine(
        context.left_corpus, context.right_corpus,
        SimilarityConfig(backend=backend),
    )
    left, right = sorted(cab_pair.left.entities)[0], sorted(cab_pair.right.entities)[0]
    executor = create_executor("serial")
    with pytest.raises(KeyError, match="nobody"):
        engine.score_batch([(left, right), (left, "nobody")], executor)
    assert executor.stats.dispatches == 0 and engine.stats.pairs_scored == 0
