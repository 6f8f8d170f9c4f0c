"""Unit tests for mobility histories."""

import numpy as np
import pytest
from fig1_oracle import dominating_cell

from repro.core.history import MobilityHistory, build_histories
from repro.geo import CellId
from repro.temporal import Windowing


@pytest.fixture()
def windowing() -> Windowing:
    return Windowing(origin=0.0, width_seconds=900.0)


def _history(windowing, rows, storage_level=16, entity="e"):
    """rows: list of (timestamp, lat, lng)."""
    array = np.asarray(rows, dtype=np.float64)
    return MobilityHistory.from_columns(
        entity, array[:, 0], array[:, 1], array[:, 2], windowing, storage_level
    )


class TestConstruction:
    def test_windows_and_counts(self, windowing):
        history = _history(
            windowing,
            [
                (0.0, 37.77, -122.42),
                (100.0, 37.77, -122.42),
                (950.0, 37.78, -122.41),
            ],
        )
        assert history.windows() == [0, 1]
        assert history.num_records == 3

    def test_same_cell_counted(self, windowing):
        history = _history(
            windowing, [(0.0, 37.77, -122.42), (10.0, 37.77, -122.42)]
        )
        counts = history.counts_in_window(0, 16)
        assert sum(counts.values()) == 2
        assert len(counts) == 1

    def test_record_before_origin_raises(self, windowing):
        with pytest.raises(ValueError):
            _history(windowing, [(-1.0, 37.0, -122.0)])

    def test_empty_history(self, windowing):
        history = MobilityHistory.from_columns(
            "empty", np.array([]), np.array([]), np.array([]), windowing, 16
        )
        assert history.windows() == []
        assert history.num_records == 0
        assert history.num_bins(12) == 0

    def test_repr(self, windowing):
        history = _history(windowing, [(0.0, 37.0, -122.0)])
        assert "records=1" in repr(history)


class TestBins:
    def test_bins_at_storage_level(self, windowing):
        history = _history(windowing, [(0.0, 37.77, -122.42)], storage_level=14)
        bins = history.bins(14)
        assert 0 in bins
        assert len(bins[0]) == 1
        assert CellId(bins[0][0]).level() == 14

    def test_bins_rebinned_coarser(self, windowing):
        history = _history(
            windowing,
            [(0.0, 37.77, -122.42), (10.0, 37.7701, -122.4201)],
            storage_level=20,
        )
        fine = history.bins(20)[0]
        coarse = history.bins(8)[0]
        assert len(coarse) <= len(fine)
        for cell in coarse:
            assert CellId(cell).level() == 8

    def test_bins_finer_than_storage_raises(self, windowing):
        history = _history(windowing, [(0.0, 37.0, -122.0)], storage_level=12)
        with pytest.raises(ValueError):
            history.bins(13)

    def test_bins_cached(self, windowing):
        history = _history(windowing, [(0.0, 37.0, -122.0)])
        assert history.bins(10) is history.bins(10)

    def test_num_bins_counts_distinct_cells_per_window(self, windowing):
        history = _history(
            windowing,
            [
                (0.0, 37.77, -122.42),
                (10.0, 37.80, -122.20),  # different cell, same window
                (950.0, 37.77, -122.42),
            ],
        )
        assert history.num_bins(12) == 3

    def test_rebinned_parent_contains_children(self, windowing):
        history = _history(
            windowing, [(0.0, 37.77, -122.42), (20.0, 37.772, -122.421)], storage_level=18
        )
        for coarse in history.bins(10)[0]:
            children = [
                fine
                for fine in history.bins(18)[0]
                if CellId(coarse).contains(CellId(fine))
            ]
            assert children


class TestDominatingCell:
    def test_dominating_majority(self, windowing):
        # Two records in cell A, one in distant cell B within window range.
        history = _history(
            windowing,
            [
                (0.0, 37.77, -122.42),
                (950.0, 37.77, -122.42),
                (1900.0, 37.90, -122.10),
            ],
        )
        dominating = dominating_cell(history, 0, 3, 12)
        expected = CellId.from_degrees(37.77, -122.42, 12).id
        assert dominating == expected

    def test_dominating_empty_range_is_none(self, windowing):
        history = _history(windowing, [(0.0, 37.0, -122.0)])
        assert dominating_cell(history, 5, 10, 12) is None

    def test_dominating_at_coarser_level_aggregates(self, windowing):
        # Two nearby cells at level 16 merge into one at level 8, beating a
        # single record elsewhere.
        history = _history(
            windowing,
            [
                (0.0, 37.7700, -122.4200),
                (100.0, 37.7703, -122.4203),
                (200.0, 37.5, -122.0),
            ],
        )
        coarse = dominating_cell(history, 0, 1, 8)
        assert coarse == CellId.from_degrees(37.77, -122.42, 8).id


class TestBuildHistories:
    def test_builds_all_entities(self, tiny_dataset):
        windowing = Windowing(origin=tiny_dataset.time_range()[0], width_seconds=900.0)
        histories = build_histories(tiny_dataset, windowing, 14)
        assert set(histories) == set(tiny_dataset.entities)
        for entity, history in histories.items():
            assert history.num_records == tiny_dataset.record_count(entity)

    def test_subset_of_entities(self, tiny_dataset):
        windowing = Windowing(origin=tiny_dataset.time_range()[0], width_seconds=900.0)
        histories = build_histories(tiny_dataset, windowing, 14, entities=["a", "b"])
        assert set(histories) == {"a", "b"}
