"""Unit tests for the hierarchical temporal count tree."""

from collections import Counter

import pytest
from fig1_oracle import TemporalCountTree


@pytest.fixture()
def tree() -> TemporalCountTree:
    return TemporalCountTree(
        {
            0: Counter({"a": 3, "b": 1}),
            2: Counter({"a": 1}),
            3: Counter({"b": 2, "c": 1}),
            7: Counter({"c": 5}),
        }
    )


class TestConstruction:
    def test_num_leaves(self, tree):
        assert tree.num_leaves == 8

    def test_height(self, tree):
        assert tree.height == 3

    def test_empty_tree(self):
        tree = TemporalCountTree({})
        assert tree.num_leaves == 0
        assert tree.root() == Counter()
        assert tree.total() == 0

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            TemporalCountTree({-1: Counter({"a": 1})})

    def test_empty_leaf_counters_are_dropped(self):
        tree = TemporalCountTree({0: Counter(), 1: Counter({"a": 1})})
        assert tree.leaf(0) == Counter()
        assert tree.leaf(1) == Counter({"a": 1})

    def test_single_leaf(self):
        tree = TemporalCountTree({0: Counter({"x": 2})})
        assert tree.height == 0
        assert tree.root() == Counter({"x": 2})

    def test_from_events(self):
        tree = TemporalCountTree.from_events([(0, "a"), (0, "a"), (1, "b")])
        assert tree.leaf(0) == Counter({"a": 2})
        assert tree.leaf(1) == Counter({"b": 1})

    def test_leaves_are_copied(self):
        source = {0: Counter({"a": 1})}
        tree = TemporalCountTree(source)
        source[0]["a"] = 99
        assert tree.leaf(0) == Counter({"a": 1})


class TestAccessors:
    def test_leaf(self, tree):
        assert tree.leaf(0) == Counter({"a": 3, "b": 1})
        assert tree.leaf(1) == Counter()

    def test_populated_leaves(self, tree):
        assert list(tree.populated_leaves()) == [0, 2, 3, 7]

    def test_root_aggregates_everything(self, tree):
        assert tree.root() == Counter({"a": 4, "b": 3, "c": 6})

    def test_total(self, tree):
        assert tree.total() == 13

    def test_node_count_is_sparse(self, tree):
        # 4 leaves + their ancestor paths only; far fewer than a dense tree.
        assert tree.node_count < 15


class TestRangeQueries:
    def test_full_range(self, tree):
        assert tree.range_counter(0, 8) == tree.root()

    def test_single_leaf_range(self, tree):
        assert tree.range_counter(3, 4) == Counter({"b": 2, "c": 1})

    def test_empty_range(self, tree):
        assert tree.range_counter(4, 7) == Counter()

    def test_partial_range(self, tree):
        assert tree.range_counter(0, 3) == Counter({"a": 4, "b": 1})

    def test_range_beyond_leaves_is_clamped(self, tree):
        assert tree.range_counter(0, 100) == tree.root()

    def test_invalid_range_raises(self, tree):
        with pytest.raises(ValueError):
            tree.range_counter(-1, 2)
        with pytest.raises(ValueError):
            tree.range_counter(5, 2)

    def test_matches_naive_everywhere(self, tree):
        for start in range(0, 9):
            for end in range(start, 9):
                assert tree.range_counter(start, end) == tree.naive_range_counter(
                    start, end
                ), (start, end)

    def test_range_total(self, tree):
        assert tree.range_total(0, 4) == 8
        assert tree.range_total(7, 8) == 5


class TestDominating:
    def test_dominating_full(self, tree):
        assert tree.dominating(0, 8) == "c"

    def test_dominating_subrange(self, tree):
        assert tree.dominating(0, 3) == "a"

    def test_dominating_empty_is_none(self, tree):
        assert tree.dominating(4, 7) is None

    def test_dominating_tie_breaks_to_smallest(self):
        tree = TemporalCountTree({0: Counter({2: 3, 1: 3})})
        assert tree.dominating(0, 1) == 1

    def test_dominating_single_window(self, tree):
        assert tree.dominating(7, 8) == "c"
