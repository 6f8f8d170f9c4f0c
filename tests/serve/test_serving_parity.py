"""The serving correctness anchor, pinned per executor backend: the links
in the final published snapshot are bit-identical to an offline
StreamingLinker replay of the same events — however the scheduler batched
them — because a delta relink equals a cold relink over the same state."""

import asyncio

import pytest

from repro.core.streaming import StreamingLinker
from repro.pipeline import LinkageConfig
from repro.scenarios import stream_rounds
from repro.serve import LinkageService, replay_pair
from repro.serve.replay import replay_origin

BACKENDS = ("serial", "thread", "process")


def _offline_all_at_once(rounds, config):
    """Offline baseline: observe every event, relink once at the end."""
    linker = StreamingLinker(origin=replay_origin(rounds), config=config)
    for cell in rounds:
        linker.observe("left", cell.left)
        linker.observe("right", cell.right)
    return linker.relink()


def _offline_per_round(rounds, config):
    """Offline baseline matching the service's flush-per-round schedule —
    required once retention makes evictions schedule-dependent."""
    linker = StreamingLinker(origin=replay_origin(rounds), config=config)
    report = None
    for cell in rounds:
        linker.observe("left", cell.left)
        linker.observe("right", cell.right)
        report = linker.relink()
    return report


@pytest.mark.parametrize("backend", BACKENDS)
def test_served_snapshot_bit_identical_to_offline(cab_pair, backend):
    """Served == offline regardless of how relinks were scheduled: the
    offline baseline relinks exactly once over the full stream, while the
    service relinked once per round."""
    config = LinkageConfig(executor=backend, workers=2)
    rounds = stream_rounds(cab_pair.left, cab_pair.right, rounds=3)
    result = asyncio.run(
        replay_pair(cab_pair.left, cab_pair.right, config, rounds=3)
    )
    offline = _offline_all_at_once(rounds, config)
    assert dict(result.snapshot.links) == offline.links
    assert dict(result.snapshot.link_scores) == offline.link_scores
    assert result.snapshot.threshold == offline.threshold.threshold


def test_served_snapshot_versions_track_rounds(cab_pair):
    result = asyncio.run(
        replay_pair(cab_pair.left, cab_pair.right, LinkageConfig(), rounds=3)
    )
    assert result.snapshot.version == 3
    assert [sample["round"] for sample in result.samples] == [0, 1, 2]
    assert [sample["snapshot_version"] for sample in result.samples] == [1, 2, 3]


def test_retention_parity_with_flush_per_round(cab_pair):
    """With a retention policy, evictions depend on the relink schedule —
    the service flushes per round, so the offline baseline must relink per
    round too, and then the snapshots still agree bit-for-bit."""
    config = LinkageConfig(retention="max_entities", retention_window=8)
    rounds = stream_rounds(cab_pair.left, cab_pair.right, rounds=3)
    result = asyncio.run(
        replay_pair(cab_pair.left, cab_pair.right, config, rounds=3)
    )
    offline = _offline_per_round(rounds, config)
    assert dict(result.snapshot.links) == offline.links
    assert dict(result.snapshot.link_scores) == offline.link_scores


async def _submit_with_yields(left, right, config, rounds):
    """A schedule unlike flush-per-round: yield to the writer after every
    submit, so it relinks whatever arrived so far, and flush only once."""
    cells = stream_rounds(left, right, rounds)
    async with LinkageService(replay_origin(cells), config=config) as service:
        for cell in cells:
            await service.submit("left", cell.left)
            await asyncio.sleep(0)
            await service.submit("right", cell.right)
            await asyncio.sleep(0)
        return await service.flush()


def test_parity_independent_of_batch_boundaries(cab_pair):
    """Same stream pushed through two schedules that batch it differently
    by construction publishes the same final links."""
    config = LinkageConfig()
    fine = asyncio.run(_submit_with_yields(cab_pair.left, cab_pair.right, config, 5))
    coarse = asyncio.run(
        replay_pair(cab_pair.left, cab_pair.right, config, rounds=2)
    )
    assert dict(fine.links) == dict(coarse.snapshot.links)
    assert dict(fine.link_scores) == dict(coarse.snapshot.link_scores)
