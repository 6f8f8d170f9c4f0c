"""End-to-end tests of the composable stage pipeline: custom stages via
the public registry, unified LinkageReport across linkers, normalized
stage timings."""

import pytest

from repro import LinkageConfig, LinkagePipeline, LinkageReport
from repro.baselines import GmLinker, PoisLinker, StLinkLinker
from repro.core.streaming import StreamingLinker
from repro.eval.reporting import stage_timings_table
from repro.pipeline import (
    STAGE_NAMES,
    CandidateStage,
    candidate_stages,
)

CANONICAL = set(STAGE_NAMES)


class TestUnifiedReport:
    def test_pipeline_returns_report(self, cab_pair):
        report = LinkagePipeline(LinkageConfig()).run(cab_pair.left, cab_pair.right)
        assert isinstance(report, LinkageReport)
        assert set(report.timings) == CANONICAL
        assert report.stages == STAGE_NAMES

    def test_streaming_relink_returns_report(self, cab_pair):
        origin = min(
            cab_pair.left.time_range()[0], cab_pair.right.time_range()[0]
        )
        linker = StreamingLinker(origin=origin)
        linker.observe("left", cab_pair.left.records())
        linker.observe("right", cab_pair.right.records())
        report = linker.relink()
        assert isinstance(report, LinkageReport)
        assert set(report.timings) == CANONICAL
        assert report.extras["relink"] is linker.last_relink

    @pytest.mark.parametrize(
        "linker", [StLinkLinker, PoisLinker, GmLinker], ids=["stlink", "pois", "gm"]
    )
    def test_baselines_return_reports(self, cab_pair, linker):
        # GM is slow (per-record kernel); every baseline runs on a reduced pair.
        left = cab_pair.left.subset(cab_pair.left.entities[:6])
        right = cab_pair.right.subset(cab_pair.right.entities[:6])
        report = linker().link(left, right)
        assert isinstance(report, LinkageReport)
        assert set(report.timings) == CANONICAL
        assert report.stats.bin_comparisons > 0
        assert "record_comparisons" not in report.extras

    def test_timing_keys_line_up_across_linkers(self, cab_pair):
        slim = LinkagePipeline().run(cab_pair.left, cab_pair.right)
        stlink = StLinkLinker().link(cab_pair.left, cab_pair.right)
        origin = min(
            cab_pair.left.time_range()[0], cab_pair.right.time_range()[0]
        )
        stream = StreamingLinker(origin=origin)
        stream.observe("left", cab_pair.left.records())
        stream.observe("right", cab_pair.right.records())
        streaming = stream.relink()
        assert set(slim.timings) == set(streaming.timings) == set(stlink.timings)
        table = stage_timings_table(
            {"slim": slim, "streaming": streaming, "stlink": stlink}
        )
        header = table.splitlines()[0].split()
        assert header[0] == "linker"
        assert header[1 : 1 + len(STAGE_NAMES)] == list(STAGE_NAMES)


class TestStreamingConfig:
    def test_streaming_accepts_linkage_config(self):
        linker = StreamingLinker(origin=0.0, config=LinkageConfig())
        assert isinstance(linker.config, LinkageConfig)


class TestCustomStage:
    def test_custom_candidate_stage_end_to_end(self, cab_pair):
        """A user-defined candidate stage registered through the public
        API drives a full linkage run — no edits to repro source."""

        @candidate_stages.register("test-last-char", replace=True)
        class LastCharBlocking(CandidateStage):
            """Toy blocking: only pairs whose ids share a final character."""

            calls = 0

            def generate(self, context):
                type(self).calls += 1
                return {
                    (left, right)
                    for left in context.left_histories
                    for right in context.right_histories
                    if left[-1] == right[-1]
                }

        try:
            config = LinkageConfig(candidates="test-last-char")
            report = LinkagePipeline(config).run(cab_pair.left, cab_pair.right)
            assert LastCharBlocking.calls == 1
            assert isinstance(report, LinkageReport)
            # The block keeps some but not all cross pairs.
            full = len(cab_pair.left.entities) * len(cab_pair.right.entities)
            assert 0 < report.candidate_pairs < full
            for left, right in report.links.items():
                assert left[-1] == right[-1]
        finally:
            candidate_stages.unregister("test-last-char")

    def test_custom_threshold_method_end_to_end(self, cab_pair):
        from repro.core.threshold import ThresholdDecision
        from repro.pipeline import threshold_methods

        @threshold_methods.register("test-median", replace=True)
        def median_threshold(weights):
            ordered = sorted(weights)
            return ThresholdDecision(
                threshold=ordered[len(ordered) // 2],
                method="test-median",
                expected_precision=float("nan"),
                expected_recall=float("nan"),
                expected_f1=float("nan"),
            )

        try:
            config = LinkageConfig(threshold="test-median")
            report = LinkagePipeline(config).run(cab_pair.left, cab_pair.right)
            assert report.threshold.method == "test-median"
            assert len(report.links) <= len(report.matched_edges)
        finally:
            threshold_methods.unregister("test-median")

    def test_config_naming_unregistered_stage_fails_loud(self):
        with pytest.raises(ValueError, match="registered candidate stage"):
            LinkageConfig(candidates="never-registered")
