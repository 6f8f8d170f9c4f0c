"""Unit tests for bipartite matching."""

import numpy as np
import pytest

from repro.core.matching import (
    Edge,
    greedy_max_matching,
    hungarian_matching,
    match,
)

ALL_MATCHERS = [greedy_max_matching, hungarian_matching]


def _is_valid_matching(edges):
    lefts = [e.left for e in edges]
    rights = [e.right for e in edges]
    return len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)


class TestGreedy:
    def test_highest_weight_first(self):
        edges = [Edge("a", "x", 1.0), Edge("a", "y", 5.0), Edge("b", "x", 3.0)]
        result = greedy_max_matching(edges)
        assert Edge("a", "y", 5.0) in result
        assert Edge("b", "x", 3.0) in result

    def test_one_to_one(self):
        edges = [
            Edge("a", "x", 5.0),
            Edge("a", "y", 4.0),
            Edge("b", "x", 4.5),
            Edge("b", "y", 1.0),
        ]
        result = greedy_max_matching(edges)
        assert _is_valid_matching(result)
        assert len(result) == 2

    def test_greedy_can_be_suboptimal(self):
        """Greedy picks (a,x,10) then (b,y,1)=11; optimal is (a,y,9)+(b,x,9)=18."""
        edges = [
            Edge("a", "x", 10.0),
            Edge("a", "y", 9.0),
            Edge("b", "x", 9.0),
            Edge("b", "y", 1.0),
        ]
        greedy = sum(e.weight for e in greedy_max_matching(edges))
        exact = sum(e.weight for e in hungarian_matching(edges))
        assert greedy == 11.0
        assert exact == 18.0

    def test_empty(self):
        assert greedy_max_matching([]) == []

    def test_deterministic_tie_break(self):
        edges = [Edge("b", "y", 2.0), Edge("a", "x", 2.0)]
        assert greedy_max_matching(edges) == greedy_max_matching(list(reversed(edges)))


class TestExactMatcher:
    def test_finds_optimal_assignment(self):
        edges = [
            Edge("a", "x", 10.0),
            Edge("a", "y", 9.0),
            Edge("b", "x", 9.0),
            Edge("b", "y", 1.0),
        ]
        result = hungarian_matching(edges)
        assert _is_valid_matching(result)
        assert sum(e.weight for e in result) == 18.0

    def test_only_existing_edges_linked(self):
        edges = [Edge("a", "x", 5.0), Edge("b", "x", 3.0)]
        result = hungarian_matching(edges)
        # Only one right vertex exists; at most one link possible.
        assert len(result) == 1
        assert result[0] == Edge("a", "x", 5.0)

    @pytest.mark.parametrize("matcher", ALL_MATCHERS)
    def test_empty(self, matcher):
        assert matcher([]) == []

    @pytest.mark.parametrize("matcher", ALL_MATCHERS)
    def test_single_edge(self, matcher):
        assert matcher([Edge("a", "x", 1.0)]) == [Edge("a", "x", 1.0)]

    def test_duplicate_edges_keep_best(self):
        edges = [Edge("a", "x", 1.0), Edge("a", "x", 7.0)]
        assert hungarian_matching(edges) == [Edge("a", "x", 7.0)]

    def test_same_id_both_sides_is_fine(self):
        # Anonymised datasets may reuse raw ids; sides must not collapse.
        edges = [Edge("e1", "e1", 2.0), Edge("e1", "e2", 1.0)]
        result = hungarian_matching(edges)
        assert _is_valid_matching(result)
        assert len(result) == 1

    def test_more_links_beat_more_weight(self):
        """The objective, exactly: as many links as possible first, then
        the heaviest such set — not the heaviest set outright ({a-x})."""
        edges = [Edge("a", "x", 10.0), Edge("a", "y", 1.0), Edge("b", "x", 1.0)]
        result = hungarian_matching(edges)
        assert sorted(result) == [Edge("a", "y", 1.0), Edge("b", "x", 1.0)]

    def test_optimum_agrees_with_an_independent_exact_matcher(self):
        """networkx's blossom matcher is not a dependency any more; where
        it happens to be installed it still cross-checks the optimum
        (``maxcardinality=True`` is the objective above)."""
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(5)
        for _ in range(20):
            edges = [
                Edge(f"l{left}", f"r{right}", float(rng.uniform(0.1, 10.0)))
                for left in range(6)
                for right in range(7)
                if rng.random() < 0.5
            ]
            graph = nx.Graph()
            for edge in edges:
                graph.add_edge(("L", edge.left), ("R", edge.right), weight=edge.weight)
            reference = nx.max_weight_matching(graph, maxcardinality=True)
            result = hungarian_matching(edges)
            assert _is_valid_matching(result)
            assert len(result) == len(reference)
            assert sum(e.weight for e in result) == pytest.approx(
                sum(graph[a][b]["weight"] for a, b in reference)
            )


class TestDispatch:
    def test_match_by_name(self):
        edges = [Edge("a", "x", 1.0)]
        for name in ("greedy", "hungarian"):
            assert match(edges, name) == [Edge("a", "x", 1.0)]

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            match([], "magic")

    def test_all_matchers_agree_on_separable(self):
        """When true pairs dominate, both matchers select them."""
        edges = []
        for k in range(6):
            edges.append(Edge(f"l{k}", f"r{k}", 100.0 + k))
            edges.append(Edge(f"l{k}", f"r{(k + 1) % 6}", 1.0))
        expected = {(f"l{k}", f"r{k}") for k in range(6)}
        for matcher in ALL_MATCHERS:
            got = {(e.left, e.right) for e in matcher(edges)}
            assert got == expected
