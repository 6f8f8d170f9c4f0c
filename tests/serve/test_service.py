"""LinkageService behaviour: lifecycle, versioned snapshot reads, the
debounced relink scheduler's triggers, backpressure under both policies,
per-source caps, retire flow, relink-failure isolation and metrics."""

import asyncio
import threading

import pytest

from repro.data import Record
from repro.eval.reporting import serving_table
from repro.pipeline import LinkageConfig
from repro.serve import BackpressureError, LinkageService


def _rec(entity, t, lat=37.77, lng=-122.42):
    return Record(entity, lat, lng, t)


# A minimal linkable world: one entity per side alone scores zero (its
# bins carry no IDF weight when every entity visits them), so the smallest
# stream that actually links has two co-located pairs at distinct places.
_LEFT = (_rec("u", 10.0), _rec("w", 20.0, lat=37.90, lng=-122.40))
_RIGHT = (_rec("v", 40.0), _rec("x", 50.0, lat=37.90, lng=-122.40))
_LINKS = {"u": "v", "w": "x"}


def _gate_relink(service, gate):
    """Make the service's relink wait on ``gate`` (a threading.Event) so a
    test can hold the single-writer pump inside an apply while it probes
    the ingestion front end."""
    real = service.linker.relink

    def gated():
        assert gate.wait(timeout=30.0), "test gate never released"
        return real()

    service.linker.relink = gated


class TestLifecycle:
    def test_double_start_is_an_error(self):
        async def run():
            service = LinkageService(origin=0.0)
            await service.start()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    await service.start()
            finally:
                await service.stop()

        asyncio.run(run())

    def test_submit_requires_running_service(self):
        async def run():
            service = LinkageService(origin=0.0)
            with pytest.raises(RuntimeError, match="not running"):
                await service.submit("left", [_rec("u", 10.0)])

        asyncio.run(run())

    def test_stop_is_idempotent(self):
        async def run():
            service = LinkageService(origin=0.0)
            await service.start()
            await service.stop()
            await service.stop()
            assert not service.running

        asyncio.run(run())

    def test_stop_folds_pending_events_into_final_relink(self):
        """No accepted event is ever dropped: events still pending at
        stop() ride a final relink before the pump exits."""

        async def run():
            service = LinkageService(
                origin=0.0, batch_records=10_000, max_staleness=60.0
            )
            await service.start()
            await service.submit("left", _LEFT)
            await service.submit("right", _RIGHT)
            await service.stop()
            return service.snapshot()

        snapshot = asyncio.run(run())
        assert snapshot.version == 1
        assert dict(snapshot.links) == _LINKS

    def test_submit_validates_side(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                with pytest.raises(ValueError, match="left or right"):
                    await service.submit("middle", [_rec("u", 10.0)])

        asyncio.run(run())


class TestVersionedReads:
    def test_versions_bump_and_answers_carry_version_and_watermark(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                assert service.snapshot().version == 0
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                first = await service.flush()
                await service.submit(
                    "left", [_rec("p", 70.0, lat=37.60, lng=-122.50)]
                )
                await service.submit(
                    "right", [_rec("q", 100.0, lat=37.60, lng=-122.50)]
                )
                second = await service.flush()
                answer = await service.links_for("u")
                reverse = await service.links_for("v", side="right")
                matched = await service.match("u", "v")
                stats = await service.stats()
                return first, second, answer, reverse, matched, stats

        first, second, answer, reverse, matched, stats = asyncio.run(run())
        assert (first.version, second.version) == (1, 2)
        assert first.watermark == 50.0
        assert second.watermark == 100.0
        assert dict(first.links) == _LINKS
        assert second.links.get("p") == "q"
        assert answer.linked == "v"
        assert answer.version == 2
        assert answer.watermark == 100.0
        assert answer.score == second.link_scores[("u", "v")]
        assert reverse.linked == "u"
        assert matched.linked and matched.version == 2
        assert stats["version"] == 2
        assert stats["links"] == len(second.links)
        assert stats["records_ingested"] == 6

    def test_unlinked_entity_answers_none(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                await service.flush()
                return await service.links_for("nobody")

        answer = asyncio.run(run())
        assert answer.linked is None
        assert answer.score is None
        assert answer.version == 1

    def test_published_snapshots_are_immutable(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                return await service.flush()

        snapshot = asyncio.run(run())
        with pytest.raises(TypeError):
            snapshot.links["u"] = "hijacked"
        with pytest.raises(Exception):  # frozen dataclass
            snapshot.version = 99


class TestScheduler:
    def test_batch_threshold_triggers_relink_without_flush(self):
        async def run():
            async with LinkageService(
                origin=0.0, batch_records=4, max_staleness=60.0
            ) as service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                for _ in range(200):
                    if service.snapshot().version:
                        break
                    await asyncio.sleep(0.02)
                return service.snapshot()

        snapshot = asyncio.run(run())
        assert snapshot.version == 1
        assert dict(snapshot.links) == _LINKS

    def test_staleness_deadline_triggers_relink_without_flush(self):
        async def run():
            async with LinkageService(
                origin=0.0, batch_records=10_000, max_staleness=0.1
            ) as service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                for _ in range(200):
                    if service.snapshot().version:
                        break
                    await asyncio.sleep(0.02)
                return service.snapshot()

        snapshot = asyncio.run(run())
        assert snapshot.version == 1
        assert dict(snapshot.links) == _LINKS

    def test_one_sided_stream_publishes_nothing_until_other_side(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                await service.submit("left", _LEFT)
                only_left = await service.flush()
                await service.submit("right", _RIGHT)
                both = await service.flush()
                return only_left, both

        only_left, both = asyncio.run(run())
        assert only_left.version == 0  # nothing linkable yet
        assert both.version == 1
        assert dict(both.links) == _LINKS


class TestBackpressure:
    def test_reject_raises_when_queue_full(self):
        async def run():
            service = LinkageService(
                origin=0.0,
                queue_depth=2,
                batch_records=10_000,
                max_staleness=60.0,
                backpressure="reject",
            )
            gate = threading.Event()
            _gate_relink(service, gate)
            async with service:
                await service.submit("left", [_rec("u", 10.0)])
                await service.submit("right", [_rec("v", 40.0)])
                flush_task = asyncio.create_task(service.flush())
                await asyncio.sleep(0.05)  # pump is now held inside relink
                await service.submit("left", [_rec("w", 70.0)])
                await service.submit("left", [_rec("x", 80.0)])
                with pytest.raises(BackpressureError, match="queue full"):
                    await service.submit("left", [_rec("y", 90.0)])
                rejected = service.counters.rejected
                gate.set()
                await flush_task
            return service, rejected

        service, rejected = asyncio.run(run())
        assert rejected == 1
        assert service.metrics()["rejected"] == 1
        # The rejected records never counted as ingested.
        assert service.counters.records_in == 4

    def test_block_waits_for_capacity_then_completes(self):
        async def run():
            service = LinkageService(
                origin=0.0,
                queue_depth=1,
                batch_records=10_000,
                max_staleness=60.0,
                backpressure="block",
            )
            gate = threading.Event()
            _gate_relink(service, gate)
            async with service:
                await service.submit("left", [_rec("u", 10.0)])
                await service.submit("right", [_rec("v", 40.0)])
                flush_task = asyncio.create_task(service.flush())
                await asyncio.sleep(0.05)  # pump held; queue drained
                await service.submit("left", [_rec("w", 70.0)])  # fills depth 1
                held = asyncio.create_task(
                    service.submit("left", [_rec("x", 80.0)])
                )
                with pytest.raises(TimeoutError):
                    await asyncio.wait_for(asyncio.shield(held), timeout=0.1)
                blocked = service.counters.blocked
                gate.set()
                await flush_task
                assert await held == 1  # completed once capacity freed
            return blocked, service

        blocked, service = asyncio.run(run())
        assert blocked >= 1
        assert service.counters.rejected == 0
        assert service.counters.records_in == 4

    def test_per_source_cap_rejects_chatty_source_only(self):
        async def run():
            service = LinkageService(
                origin=0.0,
                queue_depth=100,
                batch_records=10_000,
                max_staleness=60.0,
                backpressure="reject",
                max_pending_per_source=1,
            )
            gate = threading.Event()
            _gate_relink(service, gate)
            async with service:
                await service.submit("left", [_rec("u", 10.0)])
                await service.submit("right", [_rec("v", 40.0)])
                flush_task = asyncio.create_task(service.flush())
                await asyncio.sleep(0.05)  # pump held; source slots free
                await service.submit(
                    "left", [_rec("w", 70.0)], source="chatty"
                )
                with pytest.raises(BackpressureError, match="chatty"):
                    await service.submit(
                        "left", [_rec("x", 80.0)], source="chatty"
                    )
                # The global queue still has room for everyone else.
                await service.submit("left", [_rec("y", 90.0)], source="quiet")
                await service.submit("left", [_rec("z", 95.0)])  # unlabelled
                gate.set()
                await flush_task
            return service

        service = asyncio.run(run())
        assert service.counters.rejected == 1
        assert service.counters.records_in == 5


class TestRetire:
    def test_retire_removes_entity_from_next_snapshot(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                await service.submit(
                    "left", [_rec("u", 10.0), _rec("w", 20.0, lat=37.90)]
                )
                await service.submit(
                    "right", [_rec("v", 40.0), _rec("x", 50.0, lat=37.90)]
                )
                first = await service.flush()
                await service.retire("left", ["u"])
                second = await service.flush()
                return first, second, service

        first, second, service = asyncio.run(run())
        assert first.links.get("u") == "v"
        assert "u" not in second.links
        assert second.version == first.version + 1
        assert service.counters.records_retired == 1

    def test_retire_rejects_a_bare_string(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                with pytest.raises(TypeError, match="u1"):
                    await service.retire("left", "u1")
                return service

        assert asyncio.run(run()).counters.records_retired == 0

    def test_retire_unknown_entity_surfaces_named_error(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                await service.submit("left", [_rec("u", 10.0)])
                await service.submit("right", [_rec("v", 40.0)])
                await service.flush()
                await service.retire("left", ["ghost"])
                with pytest.raises(KeyError, match="ghost"):
                    await service.flush()
                # The failure was isolated: the service keeps serving and
                # a later flush still works.
                snapshot = await service.flush()
                return snapshot, service

        snapshot, service = asyncio.run(run())
        assert snapshot.version >= 1
        assert service.counters.relink_failures == 1


class TestRelinkFailure:
    def test_failed_relink_keeps_pump_alive_and_snapshot_serving(self):
        async def run():
            service = LinkageService(origin=0.0)
            real = service.linker.relink
            calls = {"n": 0}

            def flaky():
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("injected relink failure")
                return real()

            service.linker.relink = flaky
            async with service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                with pytest.raises(RuntimeError, match="injected"):
                    await service.flush()
                assert service.snapshot().version == 0  # old state serves
                assert service.counters.relink_failures == 1
                # The failed batch stayed folded in and rides the retry.
                snapshot = await service.flush()
                return snapshot, service

        snapshot, service = asyncio.run(run())
        assert snapshot.version == 1
        assert dict(snapshot.links) == _LINKS
        assert isinstance(service.last_error, RuntimeError)


class TestMetricsAndReporting:
    _EXPECTED_KEYS = (
        "events_in",
        "records_in",
        "records_retired",
        "rejected",
        "blocked",
        "queue_depth",
        "queue_peak",
        "relinks",
        "relink_failures",
        "relink_p50_s",
        "relink_p99_s",
        "snapshot_version",
        "snapshot_age_s",
        "staleness_s",
        "ingest_rate",
        "queries",
        "query_p50_ms",
        "query_p99_ms",
    )

    def test_metrics_sample_renders_in_serving_table(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                await service.submit("left", [_rec("u", 10.0)])
                await service.submit("right", [_rec("v", 40.0)])
                await service.flush()
                await service.links_for("u")
                await service.match("u", "v")
                return service.metrics()

        sample = asyncio.run(run())
        for key in self._EXPECTED_KEYS:
            assert key in sample, key
        assert sample["events_in"] == 2
        assert sample["records_in"] == 2
        assert sample["relinks"] == 1
        assert sample["snapshot_version"] == 1
        assert sample["queries"] == 2
        assert sample["ingest_rate"] > 0
        table = serving_table([{"round": 0, **sample}], title="serving")
        assert "serving" in table
        for column in ("ingest_rate", "snapshot_version", "query_p99_ms"):
            assert column in table


class TestValidation:
    def test_unknown_backpressure_policy_named(self):
        with pytest.raises(ValueError, match="serve_backpressure"):
            LinkageService(origin=0.0, backpressure="bogus")

    def test_bad_queue_depth_named(self):
        with pytest.raises(ValueError, match="serve_queue_depth"):
            LinkageService(origin=0.0, queue_depth=0)

    def test_bad_batch_named(self):
        with pytest.raises(ValueError, match="serve_batch"):
            LinkageService(origin=0.0, batch_records=-1)

    def test_bad_staleness_named(self):
        with pytest.raises(ValueError, match="serve_staleness"):
            LinkageService(origin=0.0, max_staleness=0.0)

    def test_bad_source_cap_named(self):
        with pytest.raises(ValueError, match="max_pending_per_source"):
            LinkageService(origin=0.0, max_pending_per_source=-1)

    def test_config_serve_fields_flow_through(self):
        config = LinkageConfig(
            serve_queue_depth=7,
            serve_batch=3,
            serve_staleness=1.5,
            serve_backpressure="reject",
        )
        service = LinkageService(origin=0.0, config=config)
        assert service.queue_depth == 7
        assert service.batch_records == 3
        assert service.max_staleness == 1.5
        assert service.backpressure == "reject"

    def test_keyword_overrides_beat_config(self):
        config = LinkageConfig(serve_queue_depth=7, serve_backpressure="reject")
        service = LinkageService(
            origin=0.0, config=config, queue_depth=9, backpressure="block"
        )
        assert service.queue_depth == 9
        assert service.backpressure == "block"
