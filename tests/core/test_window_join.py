"""The kernel's window join (``kernels._window_join``): every window both
entities of a pair are active in, found for a whole block at once.

* a hypothesis differential against ``set(windows_u) & set(windows_v)``
  per pair, over drawn directories — entities with no window, disjoint
  pairs, repeated pairs, one-pair and empty blocks, windows up to
  ``2**31 - 1``;
* dispatch determinism: a pair's ``BatchScoreResult`` row is the same
  bits alone, in its block and in a shuffled block.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corpus import HistoryCorpus, WindowIndex
from repro.core.history import MobilityHistory
from repro.core.kernels import _window_join, score_pairs_batch
from repro.core.similarity import SimilarityConfig
from repro.temporal import Windowing

LAST_WINDOW = 2**31 - 1
WINDOWS = st.one_of(
    st.sampled_from([0, 1, LAST_WINDOW - 1, LAST_WINDOW]),
    st.integers(0, LAST_WINDOW),
)


class Directories:
    """The one corpus method the join reads (``directories``: the named
    entities' directories end to end, and each one's length), over drawn
    directories; ``window_index`` is the per-entity reading the
    reference uses."""

    def __init__(self, indexes):
        self.indexes = indexes

    def window_index(self, entity):
        return self.indexes[entity]

    def directories(self, entities):
        held = [self.indexes[entity] for entity in entities]
        none = np.empty(0, dtype=np.int64)
        return (
            *(np.concatenate([none, *(getattr(one, name) for one in held)])
              for name in ("windows", "offsets", "counts")),
            np.array([len(one) for one in held], dtype=np.int64),
        )


@st.composite
def directories(draw, prefix, pool):
    """1-5 entities whose windows are drawn from ``pool`` (maybe none)."""
    def column(values, size):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)),
                        dtype=np.int64)

    indexes = {}
    for k in range(draw(st.integers(1, 5))):
        windows = sorted(draw(st.lists(st.sampled_from(pool), unique=True)))
        indexes[f"{prefix}{k}"] = WindowIndex(
            np.array(windows, dtype=np.int64),
            column(st.integers(0, 10**9), len(windows)),
            column(st.integers(1, 64), len(windows)),
        )
    return Directories(indexes)


@st.composite
def blocks(draw):
    pool = draw(st.lists(WINDOWS, min_size=1, max_size=12, unique=True))
    left = draw(directories("u", pool))
    right = draw(directories("v", pool))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(sorted(left.indexes)),
                  st.sampled_from(sorted(right.indexes))),
        max_size=16,
    ))
    return left, right, pairs


def reference(left, right, pairs):
    """``(pair, off_u, count_u, off_v, count_v)`` rows by set intersection."""
    rows = []
    for index, (u, v) in enumerate(pairs):
        index_u, index_v = left.window_index(u), right.window_index(v)
        at_u = {w: k for k, w in enumerate(index_u.windows.tolist())}
        at_v = {w: k for k, w in enumerate(index_v.windows.tolist())}
        for window in sorted(set(at_u) & set(at_v)):
            k, j = at_u[window], at_v[window]
            rows.append((index, int(index_u.offsets[k]), int(index_u.counts[k]),
                         int(index_v.offsets[j]), int(index_v.counts[j])))
    return rows


def joined(left, right, pairs):
    columns = _window_join(left, right, pairs)
    assert all(column.dtype == np.int64 for column in columns)
    return list(zip(*(column.tolist() for column in columns)))


class TestAgainstSetIntersection:
    @settings(max_examples=300, deadline=None)
    @given(block=blocks())
    def test_the_block_and_each_pair_alone(self, block):
        left, right, pairs = block
        assert joined(left, right, pairs) == reference(left, right, pairs)
        for pair in pairs:
            assert joined(left, right, [pair]) == reference(left, right, [pair])

    def test_an_empty_block(self):
        left = Directories({"u": WindowIndex(*[np.zeros(0, np.int64)] * 3)})
        assert joined(left, left, []) == []

    def test_the_last_window_does_not_bleed_into_the_next_entity(self):
        # Right entity 0 ends on the last window, entity 1 starts at 0:
        # keys code << 32 | window must keep them apart.
        edge = WindowIndex(np.array([LAST_WINDOW]), np.array([5]), np.array([1]))
        start = WindowIndex(np.array([0]), np.array([7]), np.array([2]))
        left = Directories({"a": edge, "b": start})
        right = Directories({"x": edge, "y": start})
        pairs = [("a", "y"), ("b", "x"), ("a", "x"), ("b", "y")]
        assert joined(left, right, pairs) == [
            (2, 5, 1, 5, 1), (3, 7, 2, 7, 2)
        ]


WINDOWING = Windowing(0.0, 900.0)


@lru_cache(maxsize=None)
def corpora():
    """Small left / right corpora with vector- and matrix-shaped common
    windows, plus an entity on each side with no record at all."""
    rng = np.random.default_rng(2024)

    def side(prefix):
        histories = {}
        for k in range(6):
            records = 0 if k == 5 else int(rng.integers(3, 60))
            histories[f"{prefix}{k}"] = MobilityHistory.from_columns(
                f"{prefix}{k}",
                rng.uniform(0.0, 900.0 * 20, records),
                37.7 + rng.normal(0.0, 0.03, records),
                -122.4 + rng.normal(0.0, 0.03, records),
                WINDOWING, 12,
            )
        return HistoryCorpus(histories, 12)

    return side("u"), side("v")


def rows(result):
    """Each pair's row of a ``BatchScoreResult``, as bytes."""
    return [
        tuple(column[k : k + 1].tobytes() for column in result)
        for k in range(len(result.scores))
    ]


class TestDispatchDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(
        picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       min_size=1, max_size=30),
        order=st.randoms(use_true_random=False),
        config=st.sampled_from([
            SimilarityConfig(), SimilarityConfig(pairing="all_pairs"),
            SimilarityConfig(use_mfn=False), SimilarityConfig(max_speed_mps=0.5),
        ]),
    )
    def test_alone_in_block_and_shuffled(self, picks, order, config):
        left, right = corpora()
        pairs = [(f"u{a}", f"v{b}") for a, b in picks]
        block = rows(score_pairs_batch(left, right, pairs, config))
        shuffle = list(range(len(pairs)))
        order.shuffle(shuffle)
        shuffled = rows(score_pairs_batch(
            left, right, [pairs[k] for k in shuffle], config
        ))
        assert [shuffled[shuffle.index(k)] for k in range(len(pairs))] == block
        for k, pair in enumerate(pairs):
            assert rows(score_pairs_batch(left, right, [pair], config)) == [block[k]]

    def test_the_drawn_corpora_have_matrices_and_empty_entities(self):
        left, right = corpora()
        pairs = [(u, v) for u in left.entities for v in right.entities]
        result = score_pairs_batch(left, right, pairs, SimilarityConfig())
        assert (result.bin_comparisons > result.common_windows).any()
        assert len(left.window_index("u5")) == len(right.window_index("v5")) == 0
