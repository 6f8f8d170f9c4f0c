"""The whole-side signature pass equals the paper's per-history oracle.

:func:`signature_matrix` is what every linkage path runs, and the array
equivalent of the paper's Fig. 1 formulation; ``fig1_oracle``'s
``build_signature`` (one ``TemporalCountTree`` range query per slot) is
the scalar reference.  Row for row they must be the same signature —
for every spec shape, for ties, for silent entities, for grown histories.
"""

from collections import Counter

import numpy as np
import pytest
from fig1_oracle import build_signature
from hypothesis import given, settings
from hypothesis import strategies as st
from lsh_calls import signatures_to_array

from repro.core.history import MobilityHistory
from repro.geo import cell_ids_from_degrees
from repro.lsh.index import LshConfig, LshIndex
from repro.lsh.signature import SignatureSpec, signature_matrix
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)
# A handful of places, some of them neighbours inside one coarse cell, so
# generated histories collide, tie and merge under re-parenting.
PLACES = [
    (37.7700, -122.4200),
    (37.7702, -122.4203),
    (37.7790, -122.4100),
    (37.9000, -122.1000),
    (40.7100, -74.0000),
    (-33.8700, 151.2100),
]


def _history(name, storage_level, leaves, num_records):
    """A history holding exactly ``leaves`` (``{window: {cell: count}}``)."""
    bins = sorted(
        (window, cell, count)
        for window, counter in leaves.items()
        for cell, count in counter.items()
    )
    return MobilityHistory(
        name, WINDOWING, storage_level, *zip(*bins), num_records=num_records
    )


def _oracle(histories, spec):
    return signatures_to_array(
        [build_signature(history, spec) for history in histories.values()]
    ).reshape(len(histories), spec.length)


def _histories(sightings, entities, storage_level, grown):
    """``sightings``: ``(entity, window, place)`` triples.  Entities in
    ``grown`` get their second half through ``extend()``."""
    histories = {}
    for entity in range(entities):
        rows = [(w, p) for e, w, p in sightings if e == entity]
        halves = [rows[: len(rows) // 2], rows[len(rows) // 2 :]] if entity in grown else [rows]
        for half in halves:
            stamps = np.array([w * 900.0 + 1.0 for w, _ in half])
            lats = np.array([PLACES[p][0] for _, p in half])
            lngs = np.array([PLACES[p][1] for _, p in half])
            name = f"e{entity}"
            if name in histories:
                histories[name].extend(stamps, lats, lngs)
            else:
                histories[name] = MobilityHistory.from_columns(
                    name, stamps, lats, lngs, WINDOWING, storage_level
                )
    return histories


@settings(max_examples=80, deadline=None)
@given(
    sightings=st.lists(
        st.tuples(
            st.integers(0, 4), st.integers(0, 39), st.integers(0, len(PLACES) - 1)
        ),
        max_size=60,
    ),
    storage_level=st.sampled_from([14, 17]),
    coarser=st.sampled_from([0, 1, 5]),
    start=st.integers(0, 6),
    total=st.integers(1, 30),
    step=st.integers(1, 7),
    grown=st.sets(st.integers(0, 4)),
)
def test_every_row_equals_the_tree_oracle(
    sightings, storage_level, coarser, start, total, step, grown
):
    """Generated over ``start_window > 0``, ragged last slots, records at
    or beyond ``start + total`` and before ``start`` (ignored), signature
    level equal to and coarser than storage, count ties, entities silent
    in every slot (entity 5 never has a record), histories grown by
    ``extend()``."""
    histories = _histories(sightings, 6, storage_level, grown)
    spec = SignatureSpec(start, total, step, storage_level - coarser)
    matrix = signature_matrix(histories, spec)
    assert matrix.dtype == np.uint64
    assert np.array_equal(matrix, _oracle(histories, spec))
    assert not matrix[5].any()


def test_exact_ties_go_to_the_smallest_cell_id():
    low, high = sorted(
        cell_ids_from_degrees(
            np.array([PLACES[0][0], PLACES[4][0]]),
            np.array([PLACES[0][1], PLACES[4][1]]),
            14,
        ).tolist()
    )
    # The larger id is seen first and in the earlier window: neither
    # arrival order nor window order may decide a tie.
    leaves = {0: Counter({high: 2}), 1: Counter({low: 1}), 2: Counter({low: 1})}
    history = _history("tied", 14, leaves, 4)
    spec = SignatureSpec(0, 4, 4, 14)
    assert signature_matrix({"tied": history}, spec).tolist() == [[low]]
    assert build_signature(history, spec) == (low,)


def test_an_empty_mapping_is_a_zero_row_matrix():
    spec = SignatureSpec(0, 10, 3, 14)
    assert signature_matrix({}, spec).shape == (0, spec.length)


def test_a_silent_entity_is_hashed_into_nothing():
    config = LshConfig(threshold=0.5, step_windows=3, spatial_level=14)
    spec = config.signature_spec(10)
    silent = MobilityHistory.from_columns(
        "ghost", np.array([]), np.array([]), np.array([]), WINDOWING, 14
    )
    index = LshIndex(config, spec)
    index.add_histories({"ghost": silent}, {})
    assert index.stats.hashed_bands_left == 0
    assert not len(index.candidate_pairs())


@settings(max_examples=40, deadline=None)
@given(
    leaves=st.dictionaries(
        st.integers(0, 11),
        st.dictionaries(
            st.integers(0, len(PLACES) - 1),
            st.sampled_from([0.125, 0.25, 0.5, 0.75, 1, 2]),
            min_size=1,
        ),
        max_size=8,
    ),
    step=st.integers(1, 5),
)
def test_region_weighted_histories_with_dyadic_weights(leaves, step):
    """Fractional counts come only from region records (``radii=``).
    Dyadic weights sum exactly in any order, so the array pass and the
    tree must still agree to the bit."""
    cells = cell_ids_from_degrees(
        np.array([lat for lat, _ in PLACES]), np.array([lng for _, lng in PLACES]), 16
    ).tolist()
    history = _history(
        "region",
        16,
        {
            window: Counter({cells[place]: weight for place, weight in counter.items()})
            for window, counter in leaves.items()
        },
        0,
    )
    for level in (16, 13):
        spec = SignatureSpec(0, 12, step, level)
        assert np.array_equal(
            signature_matrix({"region": history}, spec),
            _oracle({"region": history}, spec),
        )


# ----------------------------------------------------------------------
# validation: both mistakes name their two numbers, on every way in
# ----------------------------------------------------------------------
def test_a_signature_level_finer_than_storage_is_refused():
    history = _histories([(0, 0, 0)], 1, 14, set())
    spec = SignatureSpec(0, 8, 2, 16)
    with pytest.raises(ValueError, match=r"level 16 .* storage level 14"):
        signature_matrix(history, spec)
    index = LshIndex(LshConfig(step_windows=2, spatial_level=16), spec)
    with pytest.raises(ValueError, match=r"level 16 .* storage level 14"):
        index.add_histories(history, {})


def test_a_signature_of_the_wrong_length_is_refused():
    config = LshConfig(step_windows=2, spatial_level=14)
    index = LshIndex(config, config.signature_spec(16))
    assert index.spec.length == 8
    # Long enough to band without complaint, and still wrong.
    with pytest.raises(ValueError, match=r"length 12 .* length 8"):
        index.add_signatures([0], np.ones((1, 12), dtype=np.uint64), "left")
    with pytest.raises(ValueError, match="one signature row per entity"):
        index.add_signatures([0, 1], np.ones((1, 8), dtype=np.uint64), "left")
    assert not len(index.candidate_pairs()) and not index.num_entities
