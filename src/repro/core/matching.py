"""Bipartite matching over similarity-weighted entity pairs (Sec. 3.2).

The positive-score entity pairs form a weighted bipartite graph; a matching
selects at most one partner per entity.  The paper "adapts a simple greedy
heuristic, which links the pair with the highest similarity at each step" —
:func:`greedy_max_matching`, the default.  For ablations and verification
one exact matcher is provided: the Hungarian algorithm (scipy).  On well-separated score distributions both produce
near-identical linkages, which the micro benchmarks demonstrate.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

import numpy as np

__all__ = ["Edge", "greedy_max_matching", "hungarian_matching", "match"]


class Edge(NamedTuple):
    """A weighted candidate link between a left and a right entity."""

    left: str
    right: str
    weight: float


def greedy_max_matching(edges: Sequence[Edge]) -> List[Edge]:
    """Greedy maximum-sum matching (the paper's matcher).

    Edges are taken in decreasing weight order (ties broken by entity ids
    for determinism); an edge is kept when neither endpoint is matched yet.
    """
    ordered = sorted(edges, key=lambda e: (-e.weight, e.left, e.right))
    used_left: set = set()
    used_right: set = set()
    result: List[Edge] = []
    for edge in ordered:
        if edge.left in used_left or edge.right in used_right:
            continue
        used_left.add(edge.left)
        used_right.add(edge.right)
        result.append(edge)
    return result


def hungarian_matching(edges: Sequence[Edge]) -> List[Edge]:
    """Exact matching via the Hungarian algorithm: the maximum-weight
    matching *among those with the most links*.

    Missing pairs are filled with a weight more negative than all real
    edges together and dropped from the assignment afterwards, so only
    genuine candidate edges can link — and one more genuine link always
    beats any amount of weight.  On a complete bipartite graph that is
    the plain maximum-weight matching.
    """
    if not edges:
        return []
    lefts = sorted({edge.left for edge in edges})
    rights = sorted({edge.right for edge in edges})
    left_index = {entity: k for k, entity in enumerate(lefts)}
    right_index = {entity: k for k, entity in enumerate(rights)}

    weights: Dict[tuple, float] = {}
    for edge in edges:
        key = (left_index[edge.left], right_index[edge.right])
        # Keep the best weight if duplicates are supplied.
        if key not in weights or edge.weight > weights[key]:
            weights[key] = edge.weight

    missing = -1.0 - sum(abs(edge.weight) for edge in edges)
    matrix = np.full((len(lefts), len(rights)), missing, dtype=np.float64)
    for (row, column), weight in weights.items():
        matrix[row, column] = weight

    # Imported here, not at module top: the default greedy matcher never
    # needs scipy.optimize, and every ``import repro`` would pay for it.
    from scipy.optimize import linear_sum_assignment

    rows, columns = linear_sum_assignment(matrix, maximize=True)
    result: List[Edge] = []
    for row, column in zip(rows, columns):
        weight = matrix[row, column]
        if weight != missing:
            result.append(Edge(lefts[row], rights[column], float(weight)))
    return result


#: Matcher registry used by the SLIM pipeline configuration.
MATCHERS = {
    "greedy": greedy_max_matching,
    "hungarian": hungarian_matching,
}


def match(edges: Sequence[Edge], method: str = "greedy") -> List[Edge]:
    """Dispatch to a matcher by name (``greedy`` | ``hungarian``)."""
    try:
        matcher = MATCHERS[method]
    except KeyError:
        raise ValueError(
            f"unknown matching method {method!r}; choose from {sorted(MATCHERS)}"
        ) from None
    return matcher(edges)
