"""Retention policies: bounded-memory streaming via entity retirement.

A long-running :class:`~repro.core.streaming.StreamingLinker` only ever
*grows*: every entity observed since the origin keeps its history, its
corpus statistics, its LSH placements and its cached pair scores forever.
On an unbounded stream that is an unbounded memory leak — and every relink
pays candidate generation and IDF bookkeeping for entities that stopped
reporting long ago and can never match again.

A :class:`RetentionPolicy` decides, before each relink, which entities
have left the live working set.  Retirement is a *first-class removal
delta*, not a rebuild: the linker drops the retired histories,
:meth:`~repro.core.corpus.HistoryCorpus.refresh` retracts their bins
(document frequencies, flat array views, df slots) through the existing
compaction path, the persistent LSH index clears their rows of its
bucket matrices (:meth:`~repro.lsh.index.LshIndex.remove`, one call per
side over the retired entities' codes), and the
:class:`~repro.core.score_cache.ScoreCache` drops their rows.  The parity
contract mirrors the delta-relink one: a relink after retirement is
bit-identical to a cold run over the *surviving* entities
(``tests/core/test_retention.py``).

Policies live in a string-keyed registry and plug in like every other
strategy in this package:

>>> policy = build_retention("sliding_window", 4)
>>> from repro.core.history import MobilityHistory
>>> from repro.temporal import Windowing
>>> import numpy as np
>>> w = Windowing(0.0, 900.0)
>>> def history(eid, *times):
...     t = np.array(times)
...     return MobilityHistory.from_columns(
...         eid, t, np.full(t.shape, 37.77), np.full(t.shape, -122.42), w, 12)
>>> histories = {"old": history("old", 10.0), "new": history("new", 9000.0)}
>>> sorted(policy.retire(histories, current_window=10))
['old']
>>> build_retention("none", 0).retire(histories, current_window=10)
set()
"""

from __future__ import annotations

from typing import Dict, Set

from ..registry import Registry
from .history import MobilityHistory

__all__ = [
    "RetentionPolicy",
    "NoRetention",
    "SlidingWindowRetention",
    "MaxEntitiesRetention",
    "retention_policies",
    "build_retention",
]

#: Registered retention strategies; entries are factories called with the
#: policy's ``window`` parameter (see :func:`build_retention`).
retention_policies: Registry["type"] = Registry("retention policy")


class RetentionPolicy:
    """Decides which entities have left the live working set.

    ``retire`` returns the entity ids to drop, given a side's current
    histories and the stream's latest leaf-window index.  Implementations
    must be **deterministic** (the eviction parity contract replays them)
    and must never retire *every* entity — a side needs at least one
    survivor to relink.  ``window`` is the policy's single integer
    parameter; its meaning is policy-specific (see the built-ins).
    """

    def __init__(self, window: int) -> None:
        self.window = window

    def retire(
        self, histories: Dict[str, MobilityHistory], current_window: int
    ) -> Set[str]:
        raise NotImplementedError

    @staticmethod
    def _spare_most_recent(
        doomed: Set[str], histories: Dict[str, MobilityHistory]
    ) -> Set[str]:
        """Never empty a side: keep the most recently active entity (ties
        to the largest id, so the survivor is deterministic)."""
        if doomed and len(doomed) == len(histories):
            survivor = max(
                histories, key=lambda eid: (histories[eid].latest_window(), eid)
            )
            doomed = doomed - {survivor}
        return doomed


@retention_policies.register("none")
class NoRetention(RetentionPolicy):
    """Keep everything — the historical (pre-retention) behaviour."""

    def retire(
        self, histories: Dict[str, MobilityHistory], current_window: int
    ) -> Set[str]:
        return set()


@retention_policies.register("sliding_window")
class SlidingWindowRetention(RetentionPolicy):
    """Retire entities whose last activity fell out of a sliding window.

    ``window`` is the maximum age in leaf windows: an entity whose latest
    populated window is more than ``window`` windows behind the stream's
    current window is retired.  An entity active in the current window has
    age 0; ``window=96`` with 15-minute windows keeps one day of activity.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("sliding_window retention needs window >= 1")
        super().__init__(window)

    def retire(
        self, histories: Dict[str, MobilityHistory], current_window: int
    ) -> Set[str]:
        horizon = current_window - self.window
        doomed = {
            entity_id
            for entity_id, history in histories.items()
            if history.latest_window() < horizon
        }
        return self._spare_most_recent(doomed, histories)


@retention_policies.register("max_entities")
class MaxEntitiesRetention(RetentionPolicy):
    """Bound the entity count, retiring least-recently-active first.

    ``window`` is the maximum number of entities kept per side.  Beyond
    it, entities are retired in order of their latest populated window
    (oldest activity first, ties to the smallest entity id — an LRU over
    *data* recency, so the policy is deterministic and replayable).
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("max_entities retention needs window >= 1")
        super().__init__(window)

    def retire(
        self, histories: Dict[str, MobilityHistory], current_window: int
    ) -> Set[str]:
        excess = len(histories) - self.window
        if excess <= 0:
            return set()
        by_recency = sorted(
            histories,
            key=lambda eid: (histories[eid].latest_window(), eid),
        )
        return set(by_recency[:excess])


def build_retention(name: str, window: int) -> RetentionPolicy:
    """Instantiate a registered policy (the config front door).

    ``window`` is the policy's integer parameter (max window age for
    ``"sliding_window"``, max entity count for ``"max_entities"``,
    ignored by ``"none"``).  Unknown names raise a :class:`KeyError`
    listing the registered policies.
    """
    return retention_policies.get(name)(window)
