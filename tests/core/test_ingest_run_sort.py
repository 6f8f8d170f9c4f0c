"""Ingest's run sort equals the three-key sort it skips.

Rows that already come in ``(entity, window)`` order — every
``build_histories`` call, since a dataset is sorted by ``(entity,
timestamp)`` — have only the cells inside each ``(entity, window)`` run
sorted (``cell_order``); any other input takes ``np.lexsort((cells,
windows, rows))``.  Both must give the columns a three-key sort gives,
bit for bit: bins in ``(window, cell)`` order, each count the sum of its
weights in arrival order (a stored sum first).  The reference here sums
in plain Python over the same record rows.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import history as history_module
from repro.core.history import (
    MobilityHistory,
    _spread_regions,
    build_histories,
    cell_order,
    ingest_columns,
)
from repro.data import LocationDataset
from repro.geo import cell_ids_from_degrees
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)
LEVEL = 16


@pytest.fixture()
def run_sorts(monkeypatch):
    """How many ingests took the run sort."""
    calls = []
    original = history_module.cell_order

    def counting(runs, cells, level):
        calls.append(len(cells))
        return original(runs, cells, level)

    monkeypatch.setattr(history_module, "cell_order", counting)
    return calls


def _records(seed, entities=6, per_entity=40):
    """Columns with many records per (entity, window) run, a few places
    (so runs hold repeated and out-of-order cells), in entity-then-time
    order."""
    rng = np.random.default_rng(seed)
    places = rng.uniform([37.70, -122.50], [37.80, -122.40], size=(5, 2))
    ids, stamps, lats, lngs = [], [], [], []
    for entity in range(entities):
        times = np.sort(rng.uniform(0.0, 6 * 900.0, per_entity))
        where = places[rng.integers(0, len(places), per_entity)]
        ids.append(f"e{entity}")
        stamps.append(times)
        lats.append(where[:, 0])
        lngs.append(where[:, 1])
    return ids, [per_entity] * entities, stamps, lats, lngs


def _reference(batches, level):
    """``{entity: (windows, cells, counts)}`` after ingesting ``batches``
    (``(ids, lengths, timestamps, lats, lngs, radii)`` each) in turn:
    the record rows the ingest makes, summed per bin in arrival order."""
    sums = defaultdict(lambda: defaultdict(float))
    for ids, lengths, timestamps, lats, lngs, radii in batches:
        rows = np.repeat(np.arange(len(ids)), lengths)
        windows = np.floor(timestamps / WINDOWING.width_seconds).astype(np.int64)
        cells = cell_ids_from_degrees(lats, lngs, level)
        weights = np.ones(len(rows))
        if radii is not None:
            rows, windows, cells, weights = _spread_regions(
                (rows, windows, cells), lats, lngs, radii, level
            )
        for row, window, cell, weight in zip(
            rows.tolist(), windows.tolist(), cells.tolist(), weights.tolist()
        ):
            sums[ids[row]][window, cell] += weight
    return {
        entity: tuple(
            np.array(column)
            for column in zip(*((w, c, n) for (w, c), n in sorted(bins.items())))
        )
        for entity, bins in sums.items()
    }


def _assert_columns(histories, expected):
    assert sorted(histories) == sorted(expected)
    for entity, (windows, cells, counts) in expected.items():
        history = histories[entity]
        assert history._windows.tolist() == windows.tolist()
        assert history._cells.tolist() == cells.tolist()
        assert history._counts.tobytes() == counts.astype(np.float64).tobytes()


def _ingest(histories, ids, lengths, stamps, lats, lngs, radii=None, level=LEVEL):
    ingest_columns(
        histories, ids, lengths, stamps, lats, lngs, WINDOWING, level, radii
    )
    return ids, lengths, stamps, lats, lngs, radii


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_presorted_build_takes_the_run_sort(seed, run_sorts):
    ids, lengths, stamps, lats, lngs = _records(seed)
    dataset = LocationDataset.from_arrays(
        ids, {k: columns for k, *columns in zip(ids, stamps, lats, lngs)}
    )
    histories = build_histories(dataset, WINDOWING, LEVEL)
    assert run_sorts == [sum(lengths)]
    batch = (dataset.entities, np.diff(dataset._bounds), *dataset._columns, None)
    _assert_columns(histories, _reference([batch], LEVEL))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_records_take_the_three_key_sort(seed, run_sorts):
    ids, lengths, stamps, lats, lngs = _records(seed)
    rng = np.random.default_rng(seed + 100)
    shuffled = [rng.permutation(n) for n in lengths]
    columns = tuple(
        np.concatenate([part[order] for part, order in zip(column, shuffled)])
        for column in (stamps, lats, lngs)
    )
    histories = {}
    batch = _ingest(histories, ids, lengths, *columns)
    assert run_sorts == []
    _assert_columns(histories, _reference([batch], LEVEL))


@pytest.mark.parametrize("seed", [0, 1])
def test_region_covers_keep_their_fractional_sums(seed, run_sorts):
    ids, lengths, stamps, lats, lngs = _records(seed, entities=3, per_entity=12)
    columns = tuple(np.concatenate(c) for c in (stamps, lats, lngs))
    rng = np.random.default_rng(seed)
    # Radii up to a few hundred metres: level-16 covers of several cells,
    # weights 1/n that do not sum exactly in every order.
    radii = rng.choice([0.0, 150.0, 400.0], size=len(columns[0]))
    histories = {}
    batch = _ingest(histories, ids, lengths, *columns, radii=radii)
    assert run_sorts and run_sorts[0] > len(columns[0])  # covers expanded
    _assert_columns(histories, _reference([batch], LEVEL))


@pytest.mark.parametrize("seed", [0, 1])
def test_a_grown_history_merges_as_a_one_shot_build(seed, run_sorts):
    ids, lengths, stamps, lats, lngs = _records(seed, entities=4, per_entity=30)
    histories, batches = {}, []
    for half in (slice(None, 15), slice(15, None)):
        columns = (np.concatenate([p[half] for p in c]) for c in (stamps, lats, lngs))
        batches.append(_ingest(histories, ids, [15] * len(ids), *columns))
    # The second ingest merges stored bins first: out of order, lexsort.
    assert len(run_sorts) == 1
    _assert_columns(histories, _reference(batches, LEVEL))

    # One entity grown by later records alone stays in order: run sort.
    single = MobilityHistory.from_columns(
        "e0", stamps[0][:15], lats[0][:15], lngs[0][:15], WINDOWING, LEVEL
    )
    single.extend(stamps[0][15:], lats[0][15:], lngs[0][15:])
    assert len(run_sorts) == 3
    oneshot = _reference(
        [(["e0"], [len(stamps[0])], stamps[0], lats[0], lngs[0], None)], LEVEL
    )
    _assert_columns({"e0": single}, oneshot)
    assert single.version == 1 and single.num_records == len(stamps[0])


@settings(max_examples=60, deadline=None)
@given(
    level=st.sampled_from([0, 5, 12, 16, 23, 30]),
    sizes=st.lists(st.integers(1, 6), min_size=0, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_order_is_the_two_key_lexsort(level, sizes, seed):
    """Any level, any run lengths; at level 30 the joint key has no room
    past one run, and the lexsort answers."""
    _assert_cell_order(level, np.repeat(np.arange(len(sizes)), sizes), seed)


def test_cell_order_past_the_key_bits_is_the_lexsort():
    """Level 23 leaves 14 bits for runs: 2**14 + 1 runs take the lexsort."""
    _assert_cell_order(23, np.arange(2**15) // 2, 0)


def _assert_cell_order(level, runs, seed):
    rng = np.random.default_rng(seed)
    runs = runs.astype(np.int64)
    # Few places, so runs repeat cells and ties keep their input order.
    lats = rng.choice(rng.uniform(-80.0, 80.0, 4), size=len(runs))
    lngs = rng.choice(rng.uniform(-179.0, 179.0, 4), size=len(runs))
    cells = cell_ids_from_degrees(lats, lngs, level)
    order = cell_order(runs, cells, level)
    assert order.tolist() == np.lexsort((cells, runs)).tolist()
