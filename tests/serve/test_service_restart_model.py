"""A service that crashes and restarts from ``state_dir`` is the service
that never stopped.

Hypothesis drives one service through submits, retires, flushes and
restarts — a restart abandons the running service without ``stop()``
(events queued since the last flush are lost with it, nothing else) and
builds a new one over the same ``state_dir``.  ``_SNAPSHOT_EVERY`` is 3,
so the state a restart finds is a snapshot plus a log of up to two
batches, or a snapshot alone.  An offline ``StreamingLinker`` is fed
the same batches and relinks wherever the service published: after
every flush and every restart, links, scores and ``last_relink`` must
equal it.  A final clean ``stop()`` leaves a snapshot that needs no log.
"""

import asyncio
import contextlib
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.pipeline import LinkageConfig
from repro.serve import LinkageService
from repro.serve import service as service_module

SIDES = ("left", "right")
_CONFIG = LinkageConfig(threshold="none")

_SUBMIT = st.tuples(
    st.just("submit"),
    st.sampled_from(SIDES),
    st.integers(0, 3),  # entity
    st.integers(0, 3),  # place
    st.integers(0, 5),  # hour
)
_RETIRE = st.tuples(st.just("retire"), st.sampled_from(SIDES), st.integers(0, 3))
#: A step queues a few events, then flushes, flushes and restarts, or
#: restarts with its events still queued (they are lost).
_STEPS = st.lists(
    st.tuples(
        st.lists(st.one_of(_SUBMIT, _SUBMIT, _SUBMIT, _RETIRE), min_size=1, max_size=4),
        st.sampled_from(["flush", "flush", "flush", "flush+restart", "restart"]),
    ),
    min_size=3,
    max_size=10,
)


def _both(entity, place, hour):
    return [("submit", side, entity, place, hour) for side in SIDES]


#: Restarts over a snapshot plus a two-entry log, a one-entry log, a
#: snapshot alone (the cadence's fourth persist), and one that lost its
#: queued events.
_LOGGED = [
    (_both(0, 0, 0) + _both(1, 1, 0), "flush"),
    (_both(2, 2, 1), "flush"),
    ([("submit", "left", 0, 0, 2), ("retire", "right", 1)], "flush+restart"),
    (_both(3, 3, 3), "flush"),
    (_both(1, 1, 4), "flush+restart"),
    ([("retire", "left", 2)], "flush"),
    (_both(2, 0, 5), "flush"),
    ([("submit", "right", 3, 3, 5)], "flush"),
    ([("submit", "left", 3, 1, 5)], "flush+restart"),
    ([("retire", "left", 0)], "restart"),
]


def _records(side, entity, place, hour):
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(
            f"e{entity}",
            37.6 + place * 0.01 + jitter,
            -122.4 + jitter,
            hour * 3600.0 + 100.0 * entity + 40.0 * k,
        )
        for k in range(2)
    ]


async def _abandon(service):
    service._pump_task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await service._pump_task
    service._pool.shutdown(wait=True)


def _same_relink(snapshot, offline, report):
    assert dict(snapshot.links) == dict(report.links)
    assert snapshot.link_scores == report.link_scores
    assert snapshot.relink == offline.last_relink


async def _drive(steps, state_dir):
    offline = StreamingLinker(0.0, _CONFIG)
    service = LinkageService(0.0, _CONFIG, state_dir=state_dir)
    await service.start()
    held = {side: set() for side in SIDES}  # ids once the queue is applied
    for events, then in steps:
        durable = {side: set(ids) for side, ids in held.items()}
        queued = []
        for op in events:
            if op[0] == "submit":
                _, side, entity, place, hour = op
                items = _records(side, entity, place, hour)
                await service.submit(side, items)
                held[side].add(f"e{entity}")
            else:
                _, side, entity = op
                if f"e{entity}" not in held[side]:
                    continue
                items = [f"e{entity}"]
                await service.retire(side, items)
                held[side].discard(f"e{entity}")
            queued.append((op[0], side, items))
        if then.startswith("flush"):
            version = service.snapshot().version
            snapshot = await service.flush()
            for kind, side, items in queued:
                if kind == "submit":
                    offline.observe(side, items)
                else:
                    offline.retire(side, items)
            if snapshot.version != version:
                _same_relink(snapshot, offline, offline.relink())
        else:
            held = durable  # the queued events die with the service
        if then.endswith("restart"):
            await _abandon(service)
            service = LinkageService(0.0, _CONFIG, state_dir=state_dir)
            linker = service.linker
            assert linker.last_relink == offline.last_relink
            assert linker.watermark == offline.watermark
            assert (linker.num_left_entities, linker.num_right_entities) == (
                offline.num_left_entities,
                offline.num_right_entities,
            )
            await service.start()
    await service.stop()
    assert not list(Path(state_dir).glob("log-*"))


@settings(max_examples=10, deadline=None)
@example(steps=_LOGGED)
@given(steps=_STEPS)
def test_restarts_from_snapshot_and_log_equal_the_offline_replay(steps):
    with tempfile.TemporaryDirectory() as scratch, mock.patch.object(
        service_module, "_SNAPSHOT_EVERY", 3
    ):
        asyncio.run(_drive(steps, Path(scratch) / "state"))
