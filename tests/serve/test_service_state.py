"""``LinkageService(state_dir=...)``: restart from the snapshot and
event log the service wrote, and a persist that fails is not fatal."""

import asyncio
import contextlib
import errno

from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.eval.reporting import serving_table
from repro.pipeline import LinkageConfig
from repro.serve import LinkageService
from repro.store import eventlog

_CONFIG = LinkageConfig(threshold="none")


def _round(side, round_index, per_side=8):
    jitter = 0.0 if side == "left" else 1.1e-4
    return [
        Record(
            f"e{i}",
            37.6 + (i % 4) * 0.01 + jitter,
            -122.4 + (i // 4) * 0.01 + jitter,
            round_index * 3600.0 + (i * 7) % 3500 + 10.0,
        )
        for i in range(per_side)
    ]


async def _serve_rounds(service, rounds):
    snapshot = None
    for round_index in rounds:
        await service.submit("left", _round("left", round_index))
        await service.submit("right", _round("right", round_index))
        snapshot = await service.flush()
    return snapshot


def _offline(rounds):
    linker = StreamingLinker(0.0, _CONFIG)
    report = None
    for round_index in rounds:
        linker.observe("left", _round("left", round_index))
        linker.observe("right", _round("right", round_index))
        report = linker.relink()
    return linker, report


class TestRestart:
    def test_new_service_resumes_at_the_saved_watermark(self, tmp_path):
        """serve → stop → a new service over the same ``state_dir``
        starts from the saved linker, and its next flush equals the
        offline replay of the whole stream — links, scores and the
        relink's reuse diagnostics."""
        state_dir = tmp_path / "state"

        async def first_life():
            async with LinkageService(0.0, _CONFIG, state_dir=state_dir) as service:
                return await _serve_rounds(service, range(3))

        async def second_life():
            service = LinkageService(0.0, _CONFIG, state_dir=state_dir)
            resumed_at = service.linker.watermark
            entities = service.linker.num_left_entities
            async with service:
                snapshot = await _serve_rounds(service, [3])
            return resumed_at, entities, snapshot, service

        before = asyncio.run(first_life())
        resumed_at, entities, after, service = asyncio.run(second_life())
        offline_linker, offline = _offline(range(4))

        assert resumed_at == before.watermark == max(
            record.timestamp for record in _round("right", 2)
        )
        assert entities == 8  # restored, not cold
        assert dict(after.links) == dict(offline.links)
        assert after.link_scores == offline.link_scores
        assert after.relink == offline_linker.last_relink
        assert after.watermark == offline_linker.watermark
        # Numbering continued across lives: the first life snapshots its
        # first publish (1), logs the next two and snapshots its stop (2);
        # the second snapshots its first publish (3), and its stop has no
        # logged batch to fold in.  The newer snapshot pruned every log.
        assert sorted(p.name for p in state_dir.iterdir()) == [
            "CURRENT",
            "snap-000003",
        ]
        assert service.metrics()["checkpoint_failures"] == 0


class TestCheckpointFailure:
    def test_failed_checkpoint_is_counted_not_fatal_and_retried(
        self, tmp_path, monkeypatch
    ):
        """Every save raises ``ENOSPC``: the pump survives, flush still
        resolves with the published snapshot, the failure is counted and
        recorded — and once the disk recovers, the checkpoint after the
        next publish lands."""
        state_dir = tmp_path / "state"
        real_save = StreamingLinker.save
        full = {"disk": True}

        def save(self, directory):
            if full["disk"]:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_save(self, directory)

        monkeypatch.setattr(StreamingLinker, "save", save)

        async def run():
            async with LinkageService(0.0, _CONFIG, state_dir=state_dir) as service:
                first = await asyncio.wait_for(
                    _serve_rounds(service, [0]), timeout=30.0
                )
                second = await asyncio.wait_for(
                    _serve_rounds(service, [1]), timeout=30.0
                )
                assert service.running
                failures = service.metrics()["checkpoint_failures"]
                error = service.last_error
                assert not state_dir.exists() or not list(state_dir.glob("snap-*"))

                full["disk"] = False
                third = await asyncio.wait_for(
                    _serve_rounds(service, [2]), timeout=30.0
                )
                return first, second, third, failures, error, service

        first, second, third, failures, error, service = asyncio.run(run())
        assert (first.version, second.version, third.version) == (1, 2, 3)
        assert failures == 2
        assert isinstance(error, OSError) and error.errno == errno.ENOSPC
        assert service.counters.relink_failures == 0
        assert service.metrics()["checkpoint_failures"] == 2  # no new ones
        assert "checkpoint_failures" in serving_table([service.metrics()])

        # The retried checkpoint is a complete one: a restart resumes it.
        _, offline = _offline(range(3))
        assert dict(third.links) == dict(offline.links)
        restored = StreamingLinker.restore(state_dir, strict=True)
        assert restored.watermark == third.watermark


async def _abandon(service):
    """Kill a running service without ``stop()``: no drain, no final
    snapshot — what a crash leaves is what the persists made durable."""
    service._pump_task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await service._pump_task
    service._pool.shutdown(wait=True)


class TestLogAppendFailure:
    def test_a_failed_append_is_counted_and_the_next_persist_snapshots(
        self, tmp_path, monkeypatch
    ):
        """The log append raises ``ENOSPC`` once: the pump survives, the
        failure is counted, the next persist is a full snapshot (the log
        must not have a gap), and a restart after a crash equals the
        offline replay."""
        state_dir = tmp_path / "state"
        real_write = eventlog.write_file
        appends = []

        def write_file(handle, data, event=None):
            appends.append(len(data))
            if len(appends) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(handle, data, event)

        monkeypatch.setattr(eventlog, "write_file", write_file)
        real_save = StreamingLinker.save
        saves = []

        def save(self, directory):
            saves.append(len(appends))
            return real_save(self, directory)

        monkeypatch.setattr(StreamingLinker, "save", save)

        async def crashed_life():
            service = LinkageService(0.0, _CONFIG, state_dir=state_dir)
            await service.start()
            await _serve_rounds(service, range(4))
            failures = service.metrics()["checkpoint_failures"]
            error = service.last_error
            await _abandon(service)
            return failures, error

        async def next_life():
            service = LinkageService(0.0, _CONFIG, state_dir=state_dir)
            restored = service.linker.last_relink
            async with service:
                return restored, await service.flush()

        failures, error = asyncio.run(crashed_life())
        # Round 0 snapshots, round 1's append fails, round 2 snapshots
        # again, round 3 is appended.
        assert saves == [0, 1]
        assert len(appends) == 2
        assert failures == 1
        assert isinstance(error, OSError) and error.errno == errno.ENOSPC
        assert sorted(p.name for p in state_dir.iterdir()) == [
            "CURRENT", "log-000002", "snap-000002",
        ]

        restored, snapshot = asyncio.run(next_life())
        offline_linker, _ = _offline(range(4))
        assert restored == offline_linker.last_relink
        offline = offline_linker.relink()  # the restored life's first flush
        assert dict(snapshot.links) == dict(offline.links)
        assert snapshot.link_scores == offline.link_scores
        assert snapshot.relink == offline_linker.last_relink
