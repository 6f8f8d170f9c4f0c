"""Bipartite matching over similarity-weighted entity pairs (Sec. 3.2).

The positive-score entity pairs form a weighted bipartite graph; a matching
selects at most one partner per entity.  The paper "adapts a simple greedy
heuristic, which links the pair with the highest similarity at each step" —
:func:`greedy_max_matching`, the default.  For ablations and verification
one exact matcher is provided: the Hungarian algorithm (scipy).  On well-separated score distributions both produce
near-identical linkages, which the micro benchmarks demonstrate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Edge", "greedy_max_matching", "hungarian_matching", "match"]


class Edge(NamedTuple):
    """A weighted candidate link between a left and a right entity."""

    left: str
    right: str
    weight: float


class EdgeSet(Sequence[Edge]):
    """The positive-score edges as three columns: left ids, right ids and
    float64 weights, row ``i`` being ``Edge(left[i], right[i], weight[i])``.

    What the scoring stages hand the matcher: :func:`greedy_max_matching`
    reads the columns and builds an :class:`Edge` only for the edges it
    keeps.  Read as a sequence it is the ``Edge`` rows, built once (and
    cached) on the first read — in column order, or sorted when
    ``sort_rows`` (the streaming table's pairs are in code order).
    """

    def __init__(self, left, right, weight: np.ndarray, sort_rows: bool = False):
        self.left: Sequence[str] = left
        self.right: Sequence[str] = right
        self.weight = weight
        self._sort_rows = sort_rows
        self._rows: Optional[List[Edge]] = None

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "EdgeSet":
        """Wrap a list of ``Edge`` rows (an ``EdgeSet`` is returned as is)."""
        if isinstance(edges, EdgeSet):
            return edges
        rows = list(edges)
        left, right, weight = zip(*rows) if rows else ((), (), ())
        wrapped = cls(left, right, np.asarray(weight, dtype=np.float64))
        wrapped._rows = rows
        return wrapped

    @classmethod
    def from_scores(cls, pairs, scores: np.ndarray, sort_rows: bool = False):
        """The pairs scoring above zero (Alg. 1's ``if S > 0``), pair
        ``pairs[i]`` having scored ``scores[i]``."""
        positive = np.flatnonzero(scores > 0.0)
        picked = [pairs[i] for i in positive.tolist()]
        left, right = zip(*picked) if picked else ((), ())
        return cls(left, right, scores[positive], sort_rows)

    def rows(self) -> List[Edge]:
        """The ``Edge`` rows (built on the first call, then cached)."""
        if self._rows is None:
            rows = list(map(Edge, self.left, self.right, self.weight.tolist()))
            self._rows = sorted(rows) if self._sort_rows else rows
        return self._rows

    def __len__(self) -> int:
        return len(self.weight)

    def __getitem__(self, index):
        return self.rows()[index]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.rows())

    def __eq__(self, other: object) -> bool:
        rows = other.rows() if isinstance(other, EdgeSet) else other
        return self.rows() == rows if isinstance(rows, list) else NotImplemented

    def __repr__(self) -> str:
        return f"EdgeSet({self.rows()!r})"


def greedy_max_matching(edges: Sequence[Edge]) -> List[Edge]:
    """Greedy maximum-sum matching (the paper's matcher).

    Edges are taken in decreasing weight order (ties broken by entity ids
    for determinism); an edge is kept when neither endpoint is matched yet.
    The order is a stable sort on ``-weight`` with each run of equal
    weights re-sorted by ``(left, right)``; an ``Edge`` is built only per
    kept edge (a wrapped list hands back its own rows).
    """
    edges = EdgeSet.from_edges(edges)
    left, right, weight = edges.left, edges.right, edges.weight
    ranking = np.argsort(-weight, kind="stable")
    ranked = weight[ranking]
    differs = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(np.r_[True, differs] & ~np.r_[differs, True])
    stops = np.flatnonzero(np.r_[differs, True] & ~np.r_[True, differs]) + 1
    order = ranking.tolist()

    def ids(row: int) -> Tuple[str, str]:
        return left[row], right[row]

    for start, stop in zip(starts.tolist(), stops.tolist()):
        order[start:stop] = sorted(order[start:stop], key=ids)
    rows = None if edges._sort_rows else edges._rows
    weights = weight.tolist()
    used_left: set = set()
    used_right: set = set()
    result: List[Edge] = []
    for row in order:
        left_entity, right_entity = left[row], right[row]
        if left_entity in used_left or right_entity in used_right:
            continue
        used_left.add(left_entity)
        used_right.add(right_entity)
        result.append(
            rows[row] if rows else Edge(left_entity, right_entity, weights[row])
        )
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
    # One pass over the input: the best weight per pair (duplicates may
    # be supplied) and every magnitude, in input order.
    best: Dict[Tuple[str, str], float] = {}
    magnitudes: List[float] = []
    for edge in edges:
        key = (edge.left, edge.right)
        if key not in best or edge.weight > best[key]:
            best[key] = edge.weight
        magnitudes.append(abs(edge.weight))
    if not best:
        return []
    lefts = sorted({left for left, _ in best})
    rights = sorted({right for _, right in best})
    left_index = {entity: k for k, entity in enumerate(lefts)}
    right_index = {entity: k for k, entity in enumerate(rights)}

    missing = -1.0 - sum(magnitudes)
    matrix = np.full((len(lefts), len(rights)), missing, dtype=np.float64)
    for (left, right), weight in best.items():
        matrix[left_index[left], right_index[right]] = weight

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
