"""The paper's Fig. 1 structures, kept as a scalar test oracle.

The paper organises each entity's records as a tree over temporal windows
(Fig. 1): leaves hold the set of spatial cells visited in one window, and
every internal node keeps occurrence counts of the cells in its subtree so
that aggregate queries — most importantly the *dominating grid cell* of an
arbitrary window range (Sec. 4) — can be answered without rescanning
records.

No linkage path uses this formulation: the query windows of one run
partition the window axis, so :func:`repro.lsh.signature_matrix` answers
every signature query of a dataset in one sort-and-reduce over the
histories' stored columns.  This module is what that pass is tested
against, row for row (``tests/lsh/test_signature_matrix.py``):

* :class:`TemporalCountTree` — a sparse, implicit binary segment tree:
  node ``(0, k)`` is leaf window ``k``, node ``(h, k)`` covers leaf range
  ``[k * 2**h, (k+1) * 2**h)``, only nodes whose range contains data are
  materialised.  Space is ``O(records * log windows)`` as in the paper's
  segment-tree analysis, and a range query touches ``O(log windows)``
  nodes;
* :func:`history_tree` — a history's tree at one spatial level, built
  from the scalar :meth:`~repro.core.history.MobilityHistory.counts_in_window`
  view;
* :func:`dominating_cell` and :func:`build_signature` — the Sec. 4
  queries: one range query per signature slot.

Test modules import it by bare name, like ``tests/data/scalar_reader.py``
(``tests/`` is on the import path through its ``conftest.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.history import MobilityHistory
from repro.lsh import SignatureSpec


class TemporalCountTree:
    """Sparse segment tree of ``Counter`` nodes over leaf windows.

    Keys are arbitrary hashables (SLIM uses cell ids).  The tree is built
    once from per-leaf counters and is immutable afterwards, matching how
    mobility histories are constructed from a record scan.
    """

    __slots__ = ("_nodes", "_height", "_num_leaves")

    def __init__(self, leaf_counters: Dict[int, Counter]) -> None:
        """Build the tree from ``{leaf index: Counter}``.

        Leaf indices must be non-negative: histories are constructed against
        a windowing whose origin is the earliest record in the run.
        """
        if any(index < 0 for index in leaf_counters):
            raise ValueError("leaf indices must be non-negative")
        self._num_leaves = (max(leaf_counters) + 1) if leaf_counters else 0
        height = 0
        while (1 << height) < max(1, self._num_leaves):
            height += 1
        self._height = height
        nodes: Dict[Tuple[int, int], Counter] = {}
        for index, counter in leaf_counters.items():
            if counter:
                nodes[(0, index)] = Counter(counter)
        # Aggregate counts bottom-up along only the populated paths.
        current = [key for key in nodes if key[0] == 0]
        for level in range(1, height + 1):
            parents = {}
            for _, index in current:
                parents[index >> 1] = True
            for parent_index in parents:
                merged: Counter = Counter()
                for child in (2 * parent_index, 2 * parent_index + 1):
                    child_counter = nodes.get((level - 1, child))
                    if child_counter:
                        merged.update(child_counter)
                if merged:
                    nodes[(level, parent_index)] = merged
            current = [(level, index) for index in parents]
        self._nodes = nodes

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_leaves(self) -> int:
        """Number of leaf slots (1 + highest populated leaf index)."""
        return self._num_leaves

    @property
    def height(self) -> int:
        """Height of the tree (0 for a single leaf)."""
        return self._height

    @property
    def node_count(self) -> int:
        """Number of materialised (non-empty) nodes."""
        return len(self._nodes)

    def leaf(self, index: int) -> Counter:
        """The counter at leaf ``index`` (empty counter when unpopulated)."""
        return self._nodes.get((0, index), Counter())

    def populated_leaves(self) -> Iterator[int]:
        """Iterate over populated leaf indices in increasing order."""
        return iter(sorted(i for lvl, i in self._nodes if lvl == 0))

    def root(self) -> Counter:
        """Aggregate counter over the whole tree."""
        if not self._nodes:
            return Counter()
        root = self._nodes.get((self._height, 0))
        return Counter(root) if root else Counter()

    def total(self) -> int:
        """Total number of key occurrences stored."""
        return sum(self.root().values())

    # ------------------------------------------------------------------
    # range queries
    # ------------------------------------------------------------------
    def _decompose(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Decompose leaf range ``[start, end)`` into O(log n) node keys."""
        segments: List[Tuple[int, int]] = []
        level = 0
        lo, hi = start, end
        while lo < hi:
            if lo & 1:
                segments.append((level, lo))
                lo += 1
            if hi & 1:
                hi -= 1
                segments.append((level, hi))
            lo >>= 1
            hi >>= 1
            level += 1
        return segments

    def range_counter(self, start: int, end: int) -> Counter:
        """Aggregate counter over leaf windows ``[start, end)``.

        This is the query Sec. 4 runs to find dominating grid cells: the
        decomposition means a query aligned with a tree level reads a single
        node.
        """
        if start < 0 or end < start:
            raise ValueError(f"invalid range [{start}, {end})")
        result: Counter = Counter()
        for key in self._decompose(start, min(end, 1 << self._height)):
            node = self._nodes.get(key)
            if node:
                result.update(node)
        return result

    def dominating(self, start: int, end: int) -> Optional[object]:
        """The most frequent key in ``[start, end)``, or ``None`` if empty.

        Ties break toward the smallest key so that signatures are
        deterministic across runs (required for LSH reproducibility).
        """
        counts = self.range_counter(start, end)
        if not counts:
            return None
        best_count = max(counts.values())
        return min(key for key, count in counts.items() if count == best_count)

    def range_total(self, start: int, end: int) -> int:
        """Total occurrences within leaf range ``[start, end)``."""
        return sum(self.range_counter(start, end).values())

    # ------------------------------------------------------------------
    # verification helper (used by property tests)
    # ------------------------------------------------------------------
    def naive_range_counter(self, start: int, end: int) -> Counter:
        """Reference implementation of :meth:`range_counter` that scans
        leaves directly.  Exists so tests can cross-check the segment
        decomposition."""
        result: Counter = Counter()
        for index in range(start, end):
            node = self._nodes.get((0, index))
            if node:
                result.update(node)
        return result

    @classmethod
    def from_events(cls, events: Iterable[Tuple[int, object]]) -> "TemporalCountTree":
        """Build from an iterable of ``(leaf index, key)`` events."""
        leaves: Dict[int, Counter] = {}
        for index, key in events:
            leaves.setdefault(index, Counter())[key] += 1
        return cls(leaves)


def history_tree(
    history: MobilityHistory, level: Optional[int] = None
) -> TemporalCountTree:
    """The hierarchical count tree of ``history`` at ``level`` (default:
    its storage level)."""
    level = history.storage_level if level is None else level
    windows = history.windows()
    return TemporalCountTree(
        {window: history.counts_in_window(window, level) for window in windows}
    )


def dominating_cell(
    history: MobilityHistory,
    start_window: int,
    end_window: int,
    level: Optional[int] = None,
) -> Optional[int]:
    """The dominating grid cell of ``history`` over leaf windows
    ``[start, end)``: the cell id holding the most records (ties to the
    smallest id), or ``None`` when the entity has no records there — the
    LSH signature placeholder case (Sec. 4)."""
    result = history_tree(history, level).dominating(start_window, end_window)
    return None if result is None else int(result)


def build_signature(
    history: MobilityHistory, spec: SignatureSpec
) -> Tuple[Optional[int], ...]:
    """The dominating-cell signature of one history.

    Slot ``k`` holds the dominating cell over leaf windows
    ``[start + k*step, start + (k+1)*step)`` at ``spec.spatial_level``, or
    ``None`` when the entity has no records there; each slot is one range
    query against the history's tree (the "appropriate level of the
    mobility history tree" remark in Sec. 4).
    ``signature_matrix`` must equal
    ``signatures_to_array([build_signature(h, spec)])`` row for row
    (:func:`lsh_calls.signatures_to_array`).
    """
    tree = history_tree(history, spec.spatial_level)
    slots = []
    for k in range(spec.length):
        lo = spec.start_window + k * spec.step_windows
        hi = min(lo + spec.step_windows, spec.start_window + spec.total_windows)
        result = tree.dominating(lo, hi)
        slots.append(None if result is None else int(result))
    return tuple(slots)
