"""``CorpusDelta.idf_affected`` is sound and exact.

Seeded random sequences grow histories, add entities and delete them
from the backing mapping, refreshing in between.  After every refresh
the delta must name every clean resident whose Eq. 3 idf moved (read
through the scalar oracle, :meth:`HistoryCorpus.bins_with_idf`, before
and after), never a dirty or evicted id, and — while ``|U_E|`` stands
still — exactly the clean holders of the bins whose document frequency
changed while staying shared, as a brute-force count over the
histories finds them.
"""

from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from repro.core.corpus import CorpusDelta, HistoryCorpus
from repro.core.history import MobilityHistory
from repro.temporal import Windowing

WINDOWING = Windowing(0.0, 900.0)
LEVEL = 12
STEPS = 25


def _records(rng, spots):
    """One to three ``(timestamps, lats, lngs)`` records on the given
    spots, over six windows."""
    count = int(rng.integers(1, 4))
    picks = rng.integers(len(spots), size=count)
    stamps = rng.integers(6, size=count) * 900.0 + 10.0
    return stamps, spots[picks, 0], spots[picks, 1]


def _history(rng, spots, entity):
    return MobilityHistory.from_columns(
        entity, *_records(rng, spots), WINDOWING, 14
    )


def _bins(histories):
    """Each entity's ``(window, cell)`` bins at the similarity level."""
    return {
        entity: {
            (window, cell)
            for window, cells in history.bins(LEVEL).items()
            for cell in cells
        }
        for entity, history in histories.items()
    }


def _frequencies(bins):
    counts = Counter()
    for held in bins.values():
        counts.update(held)
    return counts


def test_the_delta_carries_no_bins_and_no_drift():
    assert [field.name for field in fields(CorpusDelta)] == [
        "dirty_entities", "evicted", "idf_affected"
    ]


@pytest.mark.parametrize("seed, spot_count", [(3, 3), (11, 12)])
def test_refresh_names_exactly_the_clean_entities_whose_idf_moved(seed, spot_count):
    rng = np.random.default_rng(seed)
    spots = np.column_stack([
        37.6 + 0.05 * rng.integers(4, size=spot_count),
        -122.5 + 0.05 * rng.integers(4, size=spot_count),
    ])
    histories = {f"e{n}": _history(rng, spots, f"e{n}") for n in range(6)}
    born = len(histories)
    corpus = HistoryCorpus(histories, LEVEL)
    drifted_at_fixed_size = resized = 0
    for _ in range(STEPS):
        idf_before = {entity: corpus.bins_with_idf(entity) for entity in histories}
        bins_before = _bins(histories)
        grown, deleted = set(), set()
        for _ in range(int(rng.integers(1, 3))):
            # Mostly growth, so |U_E| often stands still.
            op = rng.choice(3, p=[0.6, 0.2, 0.2])
            if op == 0:
                entity = str(rng.choice(sorted(histories)))
                histories[entity].extend(*_records(rng, spots))
                grown.add(entity)
            elif op == 1:
                entity = f"e{born}"
                born += 1
                histories[entity] = _history(rng, spots, entity)
                grown.add(entity)
            elif len(histories) > 2:
                entity = str(rng.choice(sorted(histories)))
                del histories[entity]
                grown.discard(entity)
                deleted.add(entity)
        size_before = corpus.size
        delta = corpus.refresh()

        assert set(delta.dirty_entities) == grown
        assert set(delta.evicted) == deleted & set(bins_before)
        affected = set(delta.idf_affected)
        assert len(affected) == len(delta.idf_affected)
        assert not affected & (grown | deleted)
        clean = set(histories) - grown
        for entity in clean:
            if corpus.bins_with_idf(entity) != idf_before[entity]:
                assert entity in affected, entity
        if corpus.size != size_before:
            resized += 1
            assert affected == clean
            continue
        bins_after = _bins(histories)
        was, now = _frequencies(bins_before), _frequencies(bins_after)
        moved = {b for b, df in now.items() if 0 < was.get(b, 0) != df}
        assert affected == {e for e in clean if bins_after[e] & moved}
        drifted_at_fixed_size += bool(affected)
    # Both branches were exercised, not just the trivial one.
    assert resized and drifted_at_fixed_size
