"""The signature pass's segmented max equals the tree oracle on ties.

``signature_matrix`` sorts cells only inside each ``(entity, slot)``
group (the joined rows already come in ``(entity, window)`` order) and
picks each slot's winner as the first cell whose sum equals the group's
maximum.  Count ties *across* one slot's windows — a cell that leads one
window against two cells that together lead the slot, or equal totals
reached in different windows — are where that can go wrong; here every
history is built so they are common, and every row must equal
``fig1_oracle.build_signature``.  Level 30 leaves the joint sort key no
room for more than one group, so it checks the lexsort fallback too.
"""

from collections import Counter

import numpy as np
from fig1_oracle import build_signature
from hypothesis import given, settings
from hypothesis import strategies as st
from lsh_calls import signatures_to_array

from repro.core.history import MobilityHistory
from repro.geo import cell_ids_from_degrees
from repro.lsh.signature import SignatureSpec, signature_matrix
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)
# Three places: the first two share a level-13 parent, so re-parenting
# merges their counts into new ties.
PLACES = np.array([(37.7700, -122.4200), (37.7702, -122.4203), (37.7790, -122.4100)])

window_leaves = st.dictionaries(
    st.integers(0, len(PLACES) - 1), st.integers(1, 2), min_size=1
)
entity_leaves = st.dictionaries(st.integers(0, 11), window_leaves, max_size=12)


def _cells(level):
    return cell_ids_from_degrees(PLACES[:, 0], PLACES[:, 1], level).tolist()


def _history(name, level, leaves):
    """A history holding exactly ``leaves``: ``{window: {cell: count}}``."""
    bins = sorted(
        (window, cell, count)
        for window, counter in leaves.items()
        for cell, count in counter.items()
    )
    return MobilityHistory(
        name, WINDOWING, level, *zip(*bins),
        num_records=sum(count for *_, count in bins),
    )


@settings(max_examples=80, deadline=None)
@given(
    entities=st.lists(entity_leaves, min_size=1, max_size=8),
    levels=st.sampled_from([(16, 16), (16, 13), (30, 30), (30, 13)]),
    step=st.integers(2, 6),
)
def test_ties_across_a_slots_windows_match_the_tree(entities, levels, step):
    storage, level = levels
    cells = _cells(storage)
    histories = {
        f"e{k}": _history(f"e{k}", storage, {
            window: {cells[place]: count for place, count in counter.items()}
            for window, counter in leaves.items()
        })
        for k, leaves in enumerate(entities)
    }
    spec = SignatureSpec(0, 12, step, level)
    oracle = signatures_to_array(
        [build_signature(history, spec) for history in histories.values()]
    ).reshape(len(histories), spec.length)
    assert np.array_equal(signature_matrix(histories, spec), oracle)


def test_a_slot_won_by_a_sum_over_windows_not_a_window_leader():
    """Window 0's leader is the larger cell (2 records); the smaller cell
    reaches 3 over windows 1 and 2 and wins; a later slot ties 2:2 across
    windows and goes to the smaller cell id."""
    low, high = sorted(_cells(16)[place] for place in (0, 2))
    history = _history("e", 16, {
        0: Counter({high: 2}), 1: Counter({low: 2}), 2: Counter({low: 1}),
        4: Counter({high: 2}), 5: Counter({low: 1}), 6: Counter({low: 1}),
    })
    spec = SignatureSpec(0, 8, 4, 16)
    assert signature_matrix({"e": history}, spec).tolist() == [[low, low]]
    assert build_signature(history, spec) == (low, low)
