"""Unit tests for the record/dataset model."""

import numpy as np
import pytest

from repro.data import LocationDataset, Record


@pytest.fixture()
def dataset() -> LocationDataset:
    records = [
        Record("u1", 37.0, -122.0, 100.0),
        Record("u1", 37.1, -122.1, 50.0),
        Record("u1", 37.2, -122.2, 150.0),
        Record("u2", 40.0, -74.0, 120.0),
        Record("u2", 40.1, -74.1, 80.0),
    ]
    return LocationDataset.from_records(records, "test")


class TestConstruction:
    def test_counts(self, dataset):
        assert dataset.num_entities == 2
        assert dataset.num_records == 5
        assert len(dataset) == 5

    def test_records_sorted_by_time(self, dataset):
        timestamps = [r.timestamp for r in dataset.records_of("u1")]
        assert timestamps == sorted(timestamps)

    def test_invalid_latitude_raises(self):
        with pytest.raises(ValueError):
            LocationDataset.from_records([Record("u", 91.0, 0.0, 0.0)])

    def test_invalid_longitude_raises(self):
        with pytest.raises(ValueError):
            LocationDataset.from_records([Record("u", 0.0, -181.0, 0.0)])

    def test_from_arrays(self):
        data = {
            "e1": (np.array([3.0, 1.0]), np.array([10.0, 11.0]), np.array([20.0, 21.0]))
        }
        dataset = LocationDataset.from_arrays(["e1"], data, "arr")
        timestamps, lats, _ = dataset.columns("e1")
        assert list(timestamps) == [1.0, 3.0]
        assert list(lats) == [11.0, 10.0]

    def test_from_arrays_shape_mismatch(self):
        data = {"e1": (np.zeros(2), np.zeros(3), np.zeros(2))}
        with pytest.raises(ValueError):
            LocationDataset.from_arrays(["e1"], data)

    def test_contains(self, dataset):
        assert "u1" in dataset
        assert "nope" not in dataset


class TestAccessors:
    def test_entities_order(self, dataset):
        assert dataset.entities == ["u1", "u2"]

    def test_record_count(self, dataset):
        assert dataset.record_count("u1") == 3
        assert dataset.record_count("u2") == 2

    def test_records_iterates_all(self, dataset):
        assert sum(1 for _ in dataset.records()) == 5

    def test_time_range(self, dataset):
        assert dataset.time_range() == (50.0, 150.0)

    def test_time_range_empty_raises(self):
        with pytest.raises(ValueError):
            LocationDataset.from_records([], "empty").time_range()

    def test_time_range_of_recordless_entities_is_the_named_error(self):
        """Entities that all hold zero records are an empty dataset too,
        not a bare ``min() arg is an empty sequence``."""
        none = (np.array([]), np.array([]), np.array([]))
        columns = {"e1": none, "e2": none}
        hollow = LocationDataset.from_arrays(["e1", "e2"], columns, "hollow")
        assert hollow.num_entities == 2 and hollow.num_records == 0
        for summary in (hollow.time_range, hollow.stats):
            with pytest.raises(ValueError, match="dataset 'hollow' is empty"):
                summary()

    def test_stats(self, dataset):
        stats = dataset.stats()
        assert stats.num_entities == 2
        assert stats.num_records == 5
        assert stats.avg_records_per_entity == pytest.approx(2.5)
        assert stats.span_days == pytest.approx(100.0 / 86400.0)

    def test_repr(self, dataset):
        assert "entities=2" in repr(dataset)


class TestTransformations:
    def test_subset(self, dataset):
        sub = dataset.subset(["u2"])
        assert sub.entities == ["u2"]
        assert sub.num_records == 2

    def test_subset_keeps_each_entity_columns(self, dataset):
        sub = dataset.subset(["u1"], name="only-u1")
        assert sub.name == "only-u1"
        for original, kept in zip(dataset.columns("u1"), sub.columns("u1")):
            assert np.array_equal(original, kept)

    def test_subset_unknown_entity(self, dataset):
        with pytest.raises(KeyError):
            dataset.subset(["ghost"])

    def test_filter_min_records(self, dataset):
        filtered = dataset.filter_min_records(2)
        assert filtered.entities == ["u1"]

    def test_filter_min_records_zero_keeps_all(self, dataset):
        assert dataset.filter_min_records(0).num_entities == 2

    def test_sample_records_probability_one(self, dataset, rng):
        sampled = dataset.sample_records(1.0, rng)
        assert sampled.num_records == dataset.num_records

    def test_sample_records_statistics(self, rng):
        big = LocationDataset.from_arrays(
            ["e"],
            {"e": (np.arange(10_000.0), np.zeros(10_000), np.zeros(10_000))},
        )
        sampled = big.sample_records(0.3, rng)
        assert 0.25 < sampled.num_records / 10_000 < 0.35

    def test_sample_records_invalid_probability(self, dataset, rng):
        with pytest.raises(ValueError):
            dataset.sample_records(0.0, rng)
        with pytest.raises(ValueError):
            dataset.sample_records(1.5, rng)

    def test_rename_entities(self, dataset):
        renamed = dataset.rename_entities({"u1": "x", "u2": "y"})
        assert set(renamed.entities) == {"x", "y"}
        assert renamed.record_count("x") == 3

    def test_rename_requires_injective(self, dataset):
        with pytest.raises(ValueError):
            dataset.rename_entities({"u1": "same", "u2": "same"})

    def test_renamed(self, dataset):
        assert dataset.renamed("other").name == "other"
        assert dataset.renamed("other").num_records == dataset.num_records
