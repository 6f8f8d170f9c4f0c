"""A history is its sorted ``(window, cell, count)`` columns.

Ingest is all-or-nothing and batching-independent, the stored columns are
read-only, and every view — ``bins`` / ``counts_in_window`` — and the
dominating cell ``signature_matrix`` reads off the columns equal a
from-scratch scalar pass over the raw records.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import MobilityHistory, ingest_columns, leaf_columns
from repro.geo import CellId, LatLng
from repro.geo.cell import parent_id
from repro.geo.coverage import cover_cap
from repro.lsh.signature import SignatureSpec, signature_matrix
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)
LEVEL = 16
PLACES = [
    (37.7700, -122.4200),
    (37.7702, -122.4203),
    (37.7790, -122.4100),
    (40.7100, -74.0000),
]


def _state(history):
    """Everything an ingest may change, by value."""
    _, windows, cells, counts = leaf_columns([history])
    return (
        history.version,
        history.num_records,
        windows.tolist(),
        cells.tolist(),
        counts.tolist(),
    )


def _seeded():
    return MobilityHistory.from_columns(
        "h", np.array([10.0]), np.array([37.77]), np.array([-122.42]), WINDOWING, LEVEL
    )


# ----------------------------------------------------------------------
# all-or-nothing ingest
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "radii, message",
    [
        ([1.0, 1e7], "cap cover exceeds"),
        ([1.0, float("nan")], "non-finite or negative radius for entity 'h'"),
        ([float("inf"), 1.0], "non-finite or negative radius for entity 'h'"),
        ([1.0, -5.0], "non-finite or negative radius for entity 'h'"),
    ],
    ids=["cover-too-large", "nan", "inf", "negative"],
)
def test_a_bad_region_record_leaves_the_history_as_it_was(radii, message):
    history = _seeded()
    before = _state(history)
    with pytest.raises(ValueError, match=message):
        history.extend(
            np.array([1000.0, 2000.0]),
            np.array([37.77, 37.77]),
            np.array([-122.42, -122.42]),
            radii=np.array(radii),
        )
    assert _state(history) == before
    assert history.windows() == [0]


def test_a_bad_region_record_touches_no_history_of_the_batch():
    histories = {"h": _seeded()}
    before = _state(histories["h"])
    with pytest.raises(ValueError, match="cap cover exceeds"):
        ingest_columns(
            histories, ["h", "new"], [1, 1],
            np.array([1000.0, 2000.0]), np.array([37.77, 37.77]),
            np.array([-122.42, -122.42]), WINDOWING, LEVEL,
            radii=np.array([0.0, 1e7]),
        )
    assert list(histories) == ["h"]
    assert _state(histories["h"]) == before


def test_zero_rows_leave_a_history_untouched():
    history = _seeded()
    before = _state(history)
    empty = np.array([])
    history.extend(empty, empty, empty)
    assert _state(history) == before
    histories = {"h": history}
    ingest_columns(
        histories, ["h", "other"], [0, 1],
        np.array([20.0]), np.array([37.77]), np.array([-122.42]), WINDOWING, LEVEL,
    )
    assert _state(history) == before
    assert histories["other"].num_records == 1


# ----------------------------------------------------------------------
# read-only columns
# ----------------------------------------------------------------------
def test_stored_columns_cannot_be_written():
    history = _seeded()
    for column in (history._windows, history._cells, history._counts):
        with pytest.raises(ValueError, match="read-only"):
            column += 1
    for column in leaf_columns([history]):
        with pytest.raises(ValueError, match="read-only"):
            column += 1
    restored = pickle.loads(pickle.dumps(history))
    with pytest.raises(ValueError, match="read-only"):
        restored._counts += 1
    assert _state(restored) == _state(history)


def test_a_signature_pass_with_a_start_offset_leaves_the_columns_alone():
    history = _seeded()
    before = _state(history)
    signature_matrix({"h": history}, SignatureSpec(3, 8, 2, 14))
    assert _state(history) == before


def test_a_pickled_history_carries_its_columns_and_no_view():
    history = _seeded()
    bare = len(pickle.dumps(history))
    history.bins(12), history.counts_in_window(0, 12)
    assert len(pickle.dumps(history)) == bare


# ----------------------------------------------------------------------
# batching independence, and the views against a scalar reference
# ----------------------------------------------------------------------
def _reference(records):
    """``{window: Counter{cell: weight}}`` at ``LEVEL`` straight from raw
    ``(timestamp, place, radius)`` records, one record at a time."""
    leaves = {}
    for timestamp, place, radius in records:
        lat, lng = PLACES[place]
        cell = CellId.from_degrees(lat, lng, LEVEL)
        counter = leaves.setdefault(WINDOWING.index_of(timestamp), Counter())
        if radius <= cell.circumradius_meters() * 0.5:
            counter[cell.id] += 1
            continue
        cover = cover_cap(LatLng.from_degrees(lat, lng), radius, LEVEL)
        for covered in cover:
            counter[covered.id] += 1.0 / len(cover)
    return leaves


def _ingest(histories, batch, with_radii):
    """One ``ingest_columns`` call over ``(entity, timestamp, place,
    radius)`` rows, grouped by entity in first-seen order."""
    grouped = {}
    for entity, timestamp, place, radius in batch:
        grouped.setdefault(entity, []).append((timestamp, place, radius))
    rows = [row for group in grouped.values() for row in group]
    ingest_columns(
        histories,
        list(grouped),
        [len(group) for group in grouped.values()],
        np.array([t for t, _, _ in rows]),
        np.array([PLACES[p][0] for _, p, _ in rows]),
        np.array([PLACES[p][1] for _, p, _ in rows]),
        WINDOWING,
        LEVEL,
        np.array([r for _, _, r in rows]) if with_radii else None,
    )


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(0, 11).map(lambda window: window * 450.0 + 1.0),
                st.integers(0, len(PLACES) - 1),
                # Points, a sub-cell radius, and covers of 9 and 12 cells
                # (weights that are not dyadic).
                st.sampled_from([0.0, 5.0, 100.0, 150.0]),
            ),
            max_size=12,
        ),
        max_size=5,
    ),
    with_radii=st.booleans(),
)
def test_any_batching_equals_a_one_shot_build_and_the_scalar_reference(
    batches, with_radii
):
    if not with_radii:
        batches = [[(e, t, p, 0.0) for e, t, p, _ in batch] for batch in batches]
    piecewise, one_shot = {}, {}
    for batch in batches:
        _ingest(piecewise, batch, with_radii)
    everything = [row for batch in batches for row in batch]
    _ingest(one_shot, everything, with_radii)
    assert list(piecewise) == list(one_shot)
    for entity, history in piecewise.items():
        assert _state(history)[1:] == _state(one_shot[entity])[1:]
        leaves = _reference([row[1:] for row in everything if row[0] == entity])
        assert history.num_records == sum(row[0] == entity for row in everything)
        assert history.windows() == sorted(leaves)
        for level in (LEVEL, 12):
            assert history.bins(level) == {
                window: tuple(sorted({parent_id(cell, level) for cell in counter}))
                for window, counter in sorted(leaves.items())
            }
            totals = Counter()
            for window, counter in leaves.items():
                rebinned = Counter()
                for cell, count in counter.items():
                    rebinned[parent_id(cell, level)] += count
                assert history.counts_in_window(window, level) == pytest.approx(
                    rebinned, abs=1e-12
                )
                totals.update(rebinned)
            if with_radii:
                continue  # near-ties between fractional sums: order-dependent
            best = max(totals.values(), default=None)
            spec = SignatureSpec(0, 12, 12, level)
            assert signature_matrix({entity: history}, spec).tolist() == [
                [
                    0
                    if best is None
                    else min(cell for cell, count in totals.items() if count == best)
                ]
            ]
