"""Whole-batch ingest equals entity-at-a-time ingest.

``build_histories`` and ``StreamingLinker.observe`` bin the concatenated
records of all their entities in one pass; ``MobilityHistory.from_columns``
/ ``extend`` are the single-entity spelling.  Same windows, same counters,
same errors — and one cell-id conversion per call, however many entities
it carries.
"""

import pytest

from repro.core import history as history_module
from repro.core.history import MobilityHistory, build_histories
from repro.core.streaming import StreamingLinker
from repro.data import LocationDataset, Record
from repro.temporal import Windowing, common_windowing


def _assert_same_history(actual, expected):
    level = expected.storage_level
    assert actual.windows() == expected.windows()
    for window in expected.windows():
        assert list(actual.counts_in_window(window, level).items()) == list(
            expected.counts_in_window(window, level).items()
        )
    for field in ("entity_id", "windowing", "storage_level", "num_records", "version"):
        assert getattr(actual, field) == getattr(expected, field), field


def _windowing(dataset):
    return common_windowing((dataset.time_range(),), 900.0)


@pytest.fixture()
def conversions(monkeypatch):
    """How many times the ingest path converts coordinates to cells."""
    calls = []
    original = history_module.cell_ids_from_degrees

    def counting(lats, lngs, level):
        calls.append(len(lats))
        return original(lats, lngs, level)

    monkeypatch.setattr(history_module, "cell_ids_from_degrees", counting)
    return calls


def test_build_histories_equals_from_columns_per_entity(sm_world, conversions):
    windowing = _windowing(sm_world)
    histories = build_histories(sm_world, windowing, 16)
    assert len(sm_world.entities) >= 200
    assert conversions == [sm_world.num_records]  # one call, every record
    assert list(histories) == sm_world.entities
    for entity_id in sm_world.entities:
        expected = MobilityHistory.from_columns(
            entity_id, *sm_world.columns(entity_id), windowing, 16
        )
        _assert_same_history(histories[entity_id], expected)


def test_the_entities_subset_and_its_order_are_respected(tiny_dataset):
    windowing = _windowing(tiny_dataset)
    histories = build_histories(tiny_dataset, windowing, 14, entities=["c", "a", "c"])
    assert list(histories) == ["c", "a"]
    for entity_id, history in histories.items():
        _assert_same_history(
            history,
            MobilityHistory.from_columns(
                entity_id, *tiny_dataset.columns(entity_id), windowing, 14
            ),
        )
    assert build_histories(tiny_dataset, windowing, 14, entities=[]) == {}


def test_a_record_before_the_origin_names_its_entity(tiny_dataset):
    earliest, _ = tiny_dataset.time_range()
    late_origin = Windowing(earliest + 650.0, 900.0)
    # "a" comes first and has such a record, like everyone else: it is the
    # one named, with the message the single-entity spelling raises.
    with pytest.raises(ValueError) as batch:
        build_histories(tiny_dataset, late_origin, 14)
    with pytest.raises(ValueError) as single:
        MobilityHistory.from_columns("a", *tiny_dataset.columns("a"), late_origin, 14)
    assert str(batch.value) == str(single.value)
    assert "entity 'a'" in str(batch.value)
    # Only "c" offends: it is found behind two clean entities.
    with pytest.raises(ValueError, match="entity 'c'"):
        build_histories(
            LocationDataset.from_records(
                [
                    Record("a", 37.0, -122.0, 100.0),
                    Record("b", 37.0, -122.0, 200.0),
                    Record("c", 37.0, -122.0, 300.0),
                    Record("c", 37.0, -122.0, -5.0),
                ]
            ),
            Windowing(0.0, 900.0),
            14,
        )


def _batch(rng, entities, per_entity):
    """Records of several entities, interleaved, timestamps out of order."""
    records = [
        Record(
            entity,
            37.7 + float(rng.integers(0, 4)) * 0.01,
            -122.4 + float(rng.integers(0, 4)) * 0.01,
            float(rng.integers(0, 40)) * 450.0 + 1.0,
        )
        for entity in entities
        for _ in range(per_entity)
    ]
    order = rng.permutation(len(records))
    return [records[k] for k in order]


def test_observe_of_a_mixed_batch_equals_one_observe_per_entity(rng, conversions):
    batched, single = StreamingLinker(0.0), StreamingLinker(0.0)
    first = _batch(rng, [f"e{k}" for k in range(10)], 4)
    second = _batch(rng, [f"e{k}" for k in range(5, 55)], 3)  # 5 known, 45 new
    for records in (first, second):
        del conversions[:]
        assert batched.observe("left", records) == len(records)
        assert conversions == [len(records)]  # one conversion per call
        by_entity = {}
        for record in records:
            by_entity.setdefault(record.entity_id, []).append(record)
        for rows in by_entity.values():
            single.observe("left", rows)
    assert list(batched._sides["left"]) == list(single._sides["left"])
    for entity_id, history in single._sides["left"].items():
        _assert_same_history(batched._sides["left"][entity_id], history)
    assert batched._sides["left"]["e7"].version == 1
    assert batched._sides["left"]["e20"].version == 0
    assert batched.watermark == single.watermark


@pytest.mark.parametrize(
    "bad, message",
    [
        (Record("b", 37.0, -122.0, 50.0), "before windowing origin for entity 'b'"),
        (Record("b", 37.0, -122.0, float("nan")), "non-finite .* for entity 'b'"),
        (Record("b", 37.0, -122.0, float("inf")), "non-finite .* for entity 'b'"),
        (Record("b", float("nan"), -122.0, 400.0), "non-finite .* for entity 'b'"),
        (Record("b", 37.0, float("-inf"), 400.0), "non-finite .* for entity 'b'"),
    ],
    ids=["pre-origin", "nan-timestamp", "inf-timestamp", "nan-lat", "inf-lng"],
)
def test_observe_rejects_a_bad_batch_whole(bad, message, recwarn):
    linker = StreamingLinker(100.0)
    linker.observe("left", [Record("a", 37.0, -122.0, 150.0)])
    with pytest.raises(ValueError, match=message):
        linker.observe("left", [Record("a", 37.0, -122.0, 400.0), bad])
    assert not recwarn.list  # named before numpy meets it in a cast
    # Checked before anything is touched: "a" did not grow.
    assert linker._sides["left"]["a"].num_records == 1
    assert linker._sides["left"]["a"].version == 0
    assert list(linker._sides["left"]) == ["a"]
    assert linker.observe("left", []) == 0
