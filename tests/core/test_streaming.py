"""Unit tests for the streaming linker and incremental histories."""

import numpy as np
import pytest
from fig1_oracle import dominating_cell

from repro.core.history import MobilityHistory
from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.eval import precision_recall_f1
from repro.temporal import Windowing


class TestHistoryExtend:
    def test_extend_matches_bulk_build(self):
        windowing = Windowing(0.0, 900.0)
        timestamps = np.array([10.0, 950.0, 2000.0, 2100.0])
        lats = np.array([37.77, 37.78, 37.90, 37.77])
        lngs = np.array([-122.42, -122.41, -122.10, -122.42])

        bulk = MobilityHistory.from_columns("e", timestamps, lats, lngs, windowing, 14)
        incremental = MobilityHistory.from_columns(
            "e", timestamps[:2], lats[:2], lngs[:2], windowing, 14
        )
        incremental.extend(timestamps[2:], lats[2:], lngs[2:])

        assert incremental.num_records == bulk.num_records
        assert incremental.windows() == bulk.windows()
        assert incremental.bins(12) == bulk.bins(12)
        assert dominating_cell(incremental, 0, 4, 12) == dominating_cell(bulk, 0, 4, 12)

    def test_extend_invalidates_caches(self):
        windowing = Windowing(0.0, 900.0)
        history = MobilityHistory.from_columns(
            "e", np.array([10.0]), np.array([37.77]), np.array([-122.42]), windowing, 14
        )
        assert history.num_bins(12) == 1
        history.extend(np.array([950.0]), np.array([37.90]), np.array([-122.10]))
        assert history.num_bins(12) == 2
        assert dominating_cell(history, 0, 2, 12) is not None

    def test_extend_before_origin_raises(self):
        windowing = Windowing(1000.0, 900.0)
        history = MobilityHistory.from_columns(
            "e", np.array([1500.0]), np.array([37.0]), np.array([-122.0]), windowing, 14
        )
        with pytest.raises(ValueError):
            history.extend(np.array([10.0]), np.array([37.0]), np.array([-122.0]))


class TestRegionRecords:
    def test_region_weight_sums_to_one(self):
        windowing = Windowing(0.0, 900.0)
        history = MobilityHistory.from_columns(
            "e",
            np.array([10.0]),
            np.array([37.77]),
            np.array([-122.42]),
            windowing,
            14,
            radii=np.array([2000.0]),
        )
        counts = history.counts_in_window(0, 14)
        assert len(counts) > 1
        assert sum(counts.values()) == pytest.approx(1.0)

    def test_small_radius_stays_single_cell(self):
        windowing = Windowing(0.0, 900.0)
        history = MobilityHistory.from_columns(
            "e",
            np.array([10.0]),
            np.array([37.77]),
            np.array([-122.42]),
            windowing,
            12,
            radii=np.array([1.0]),
        )
        assert len(history.counts_in_window(0, 12)) == 1

    def test_radii_shape_mismatch_raises(self):
        windowing = Windowing(0.0, 900.0)
        with pytest.raises(ValueError):
            MobilityHistory.from_columns(
                "e",
                np.array([10.0, 20.0]),
                np.array([37.0, 37.1]),
                np.array([-122.0, -122.1]),
                windowing,
                12,
                radii=np.array([5.0]),
            )

    def test_dominating_cell_respects_weights(self):
        """Two sharp records in one cell outweigh one fuzzy region record."""
        windowing = Windowing(0.0, 900.0)
        history = MobilityHistory.from_columns(
            "e",
            np.array([10.0, 20.0, 30.0]),
            np.array([37.77, 37.77, 37.90]),
            np.array([-122.42, -122.42, -122.10]),
            windowing,
            13,
            radii=np.array([1.0, 1.0, 3000.0]),
        )
        from repro.geo import CellId

        assert dominating_cell(history, 0, 1, 13) == CellId.from_degrees(
            37.77, -122.42, 13
        ).id


class TestStreamingLinker:
    def _records(self, entity, base, lat, lng, count=8, period=900.0):
        return [
            Record(entity, lat + 1e-4 * k, lng, base + period * k)
            for k in range(count)
        ]

    def test_observe_groups_by_entity(self):
        linker = StreamingLinker(origin=0.0)
        ingested = linker.observe(
            "left",
            self._records("a", 10.0, 37.77, -122.42)
            + self._records("b", 10.0, 37.90, -122.10),
        )
        assert ingested == 16
        assert linker.num_left_entities == 2

    def test_invalid_side_raises(self):
        with pytest.raises(ValueError):
            StreamingLinker(origin=0.0).observe("middle", [])

    def test_retire_rejects_a_bare_string(self):
        """``"u1"`` is one id, not the ids ``u`` and ``1``: nothing is
        retired and ``u1`` stays."""
        linker = StreamingLinker(origin=0.0)
        for entity in ("u", "1", "u1"):
            linker.observe("left", self._records(entity, 10.0, 37.77, -122.42))
        with pytest.raises(TypeError, match="u1"):
            linker.retire("left", "u1")
        assert linker.num_left_entities == 3
        assert linker.retire("left", ["u1"]) == 1

    def test_relink_requires_both_sides(self):
        linker = StreamingLinker(origin=0.0)
        linker.observe("left", self._records("a", 10.0, 37.77, -122.42))
        with pytest.raises(ValueError):
            linker.relink()

    def test_relink_matches_batch_pipeline(self, cab_pair):
        from repro.pipeline import LinkageConfig, LinkagePipeline

        origin = min(cab_pair.left.time_range()[0], cab_pair.right.time_range()[0])
        streaming = StreamingLinker(origin=origin, config=LinkageConfig())
        streaming.observe("left", cab_pair.left.records())
        streaming.observe("right", cab_pair.right.records())
        stream_result = streaming.relink()

        batch_result = LinkagePipeline(LinkageConfig()).run(
            cab_pair.left, cab_pair.right
        )
        assert stream_result.links == batch_result.links

    def test_incremental_ingestion_improves_linkage(self, cab_pair):
        """Relinking after more evidence arrives should not get worse."""
        origin = min(cab_pair.left.time_range()[0], cab_pair.right.time_range()[0])
        midpoint = origin + 0.3 * (
            max(cab_pair.left.time_range()[1], cab_pair.right.time_range()[1]) - origin
        )
        linker = StreamingLinker(origin=origin)
        linker.observe(
            "left", (r for r in cab_pair.left.records() if r.timestamp <= midpoint)
        )
        linker.observe(
            "right", (r for r in cab_pair.right.records() if r.timestamp <= midpoint)
        )
        early = linker.relink()
        early_f1 = precision_recall_f1(early.links, cab_pair.ground_truth).f1

        linker.observe(
            "left", (r for r in cab_pair.left.records() if r.timestamp > midpoint)
        )
        linker.observe(
            "right", (r for r in cab_pair.right.records() if r.timestamp > midpoint)
        )
        late = linker.relink()
        late_f1 = precision_recall_f1(late.links, cab_pair.ground_truth).f1
        assert late_f1 >= early_f1 - 0.1

    def test_total_windows_tracks_latest(self):
        linker = StreamingLinker(origin=0.0)
        linker.observe("left", [Record("a", 37.0, -122.0, 10.0)])
        assert linker.total_windows() == 1
        linker.observe("left", [Record("a", 37.0, -122.0, 10_000.0)])
        assert linker.total_windows() == 12

    def test_lsh_streaming(self, cab_pair):
        from repro.pipeline import LinkageConfig
        from repro.lsh import LshConfig

        origin = min(cab_pair.left.time_range()[0], cab_pair.right.time_range()[0])
        linker = StreamingLinker(
            origin=origin,
            config=LinkageConfig(
                lsh=LshConfig(threshold=0.4, step_windows=8, spatial_level=14)
            ),
        )
        linker.observe("left", cab_pair.left.records())
        linker.observe("right", cab_pair.right.records())
        result = linker.relink()
        assert result.candidate_pairs <= (
            linker.num_left_entities * linker.num_right_entities
        )
