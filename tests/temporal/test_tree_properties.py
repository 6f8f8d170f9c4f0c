"""Property-based tests for the temporal count tree."""

from collections import Counter

from fig1_oracle import TemporalCountTree
from hypothesis import given, settings
from hypothesis import strategies as st

events_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=9)),
    min_size=0,
    max_size=120,
)


@given(events=events_strategy, start=st.integers(0, 64), width=st.integers(0, 64))
@settings(max_examples=200, deadline=None)
def test_range_query_matches_naive(events, start, width):
    """Segment decomposition agrees with a direct leaf scan on any range."""
    tree = TemporalCountTree.from_events(events)
    end = start + width
    assert tree.range_counter(start, end) == tree.naive_range_counter(start, end)


@given(events=events_strategy)
@settings(max_examples=100, deadline=None)
def test_root_equals_event_multiset(events):
    """The root aggregates exactly the inserted events."""
    tree = TemporalCountTree.from_events(events)
    expected = Counter(key for _, key in events)
    assert tree.root() == expected
    assert tree.total() == len(events)


@given(events=events_strategy, split=st.integers(0, 64))
@settings(max_examples=100, deadline=None)
def test_ranges_are_additive(events, split):
    """counter([0, split)) + counter([split, end)) == counter([0, end))."""
    tree = TemporalCountTree.from_events(events)
    left = tree.range_counter(0, split)
    right = tree.range_counter(split, 64)
    combined = Counter(left)
    combined.update(right)
    assert combined == tree.range_counter(0, 64)


@given(events=events_strategy, start=st.integers(0, 63), width=st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_dominating_is_argmax_of_range(events, start, width):
    """dominating() returns a maximal-count key (smallest on ties)."""
    tree = TemporalCountTree.from_events(events)
    counts = tree.range_counter(start, start + width)
    dominating = tree.dominating(start, start + width)
    if not counts:
        assert dominating is None
    else:
        best = max(counts.values())
        assert counts[dominating] == best
        assert dominating == min(k for k, v in counts.items() if v == best)
