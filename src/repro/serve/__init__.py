"""Linkage-as-a-service: the asyncio online serving layer.

The batch pipeline and the streaming linker answer "link these two
datasets"; this package answers "keep them linked while records keep
arriving, and answer queries *now*".  Three pieces:

* :class:`LinkageService` — event ingestion (add / retire) on a bounded
  queue with explicit backpressure (``block`` or ``reject``, per-source
  caps), a single writer that, whenever it is free, relinks every
  queued event as one batch with
  :meth:`~repro.core.streaming.StreamingLinker.relink` off the event
  loop, and snapshot-serving queries.
* :class:`LinkSnapshot` — the immutable, versioned, watermarked read
  state every query answers from; publishing is one reference swap, so
  readers never block writers.
* :func:`replay_pair` / :func:`replay_rounds` — replay a dataset pair as
  a time-ordered event stream through a service (the ``slim-link serve``
  front door and the serving benchmark's load generator).

The correctness anchor (pinned in ``tests/serve/`` per executor backend):
the links in the final published snapshot are bit-identical to an offline
:class:`~repro.core.streaming.StreamingLinker` replay of the same events,
because a delta relink equals a cold relink over the same state.
"""

from .replay import ReplayResult, replay_pair, replay_rounds
from .service import SERVE_BACKPRESSURE_POLICIES, BackpressureError, LinkageService
from .snapshot import LinkAnswer, LinkSnapshot, MatchAnswer

__all__ = [
    "LinkageService",
    "LinkSnapshot",
    "LinkAnswer",
    "MatchAnswer",
    "BackpressureError",
    "ReplayResult",
    "replay_pair",
    "replay_rounds",
    "SERVE_BACKPRESSURE_POLICIES",
]
