"""LinkageService behaviour: lifecycle, versioned snapshot reads,
continuous batching (the writer relinks whenever it is free), idle
flushes, backpressure under both policies, per-source caps, retire flow,
relink-failure isolation and metrics."""

import asyncio
import math
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingLinker
from repro.data import Record
from repro.eval.reporting import serving_table
from repro.pipeline import LinkageConfig
from repro.serve import BackpressureError, LinkageService
from repro.serve import service as service_module


def _rec(entity, t, lat=37.77, lng=-122.42):
    return Record(entity, lat, lng, t)


# A minimal linkable world: one entity per side alone scores zero (its
# bins carry no IDF weight when every entity visits them), so the smallest
# stream that actually links has two co-located pairs at distinct places.
_LEFT = (_rec("u", 10.0), _rec("w", 20.0, lat=37.90, lng=-122.40))
_RIGHT = (_rec("v", 40.0), _rec("x", 50.0, lat=37.90, lng=-122.40))
_LINKS = {"u": "v", "w": "x"}


# The property test's world: the n-th submit of entity k visits place k,
# then place k + 1, in time slot 4n + k — on either side, so left and right
# entity k are co-located whenever both have been submitted n times.
_PLACES = [(37.60 + 0.03 * k, -122.50 + 0.02 * k) for k in range(4)]
_PROPERTY_CONFIG = LinkageConfig(threshold="none")
_OP = st.tuples(
    st.sampled_from(["submit", "retire", "flush"]),
    st.sampled_from(["left", "right"]),
    st.integers(0, 3),
    st.booleans(),
)


def _visits(side, entity, n):
    start = 3600.0 * (4 * n + entity) + (0.0 if side == "left" else 30.0)
    places = (_PLACES[entity], _PLACES[(entity + 1) % 4])
    return [
        Record(f"{side[0]}{entity}", *place, start + 1800.0 * hop)
        for hop, place in enumerate(places)
    ]


def _gate(service, method, gate, entered=None):
    """Make the linker's ``method`` wait on ``gate`` (a threading.Event)
    so a test can hold the single-writer pump inside an apply while it
    probes the ingestion front end; ``entered`` (another Event) is set
    once the writer is inside."""
    real = getattr(service.linker, method)

    def gated(*args):
        if entered is not None:
            entered.set()
        assert gate.wait(timeout=30.0), "test gate never released"
        return real(*args)

    setattr(service.linker, method, gated)


async def _until(condition, seconds=10.0):
    """Yield to the event loop until ``condition()`` holds."""
    for _ in range(int(seconds / 0.005)):
        if condition():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition never held")


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
        stop() ride a final relink before the pump exits.  The writer is
        held inside the left side's observe, so the right side really is
        pending when stop() is called."""

        async def run():
            service = LinkageService(origin=0.0)
            gate, entered = threading.Event(), threading.Event()
            _gate(service, "observe", gate, entered)
            await service.start()
            await service.submit("left", _LEFT)
            await _until(entered.is_set)
            await service.submit("right", _RIGHT)
            stopping = asyncio.create_task(service.stop())
            await asyncio.sleep(0)  # the stop event is queued behind right
            gate.set()
            await stopping
            return service.snapshot()

        snapshot = asyncio.run(run())
        assert snapshot.version == 1
        assert dict(snapshot.links) == _LINKS

    def test_stop_folds_events_enqueued_after_the_stop_event(self):
        async def run():
            service = LinkageService(origin=0.0)
            gate, entered = threading.Event(), threading.Event()
            _gate(service, "relink", gate, entered)
            await service.start()
            await service.submit("left", _LEFT)
            await service.submit("right", _RIGHT)
            await _until(entered.is_set)
            stopping = asyncio.create_task(service.stop())
            await asyncio.sleep(0)  # the stop event is queued
            await service.submit("left", [_rec("p", 70.0, lat=37.60)])
            await service.submit("right", [_rec("q", 90.0, lat=37.60)])
            gate.set()
            await stopping
            return service.snapshot()

        snapshot = asyncio.run(run())
        assert snapshot.version == 2
        assert snapshot.records_ingested == 6
        assert snapshot.links.get("p") == "q"

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


class TestContinuousBatching:
    def test_idle_writer_relinks_without_flush(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                await _until(lambda: service.snapshot().version)
                return service.snapshot()

        snapshot = asyncio.run(run())
        assert snapshot.version == 1
        assert dict(snapshot.links) == _LINKS

    def test_events_during_a_relink_ride_exactly_one_more(self):
        async def run():
            service = LinkageService(origin=0.0)
            gate, entered = threading.Event(), threading.Event()
            _gate(service, "relink", gate, entered)
            async with service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                await _until(entered.is_set)  # writer holds the first relink
                for k in range(3):
                    place = {"lat": 37.60 + 0.05 * k, "lng": -122.50}
                    await service.submit("left", [_rec(f"p{k}", 70.0, **place)])
                    await asyncio.sleep(0)
                    await service.submit("right", [_rec(f"q{k}", 90.0, **place)])
                    await asyncio.sleep(0)
                gate.set()
                return await service.flush(), service

        snapshot, service = asyncio.run(run())
        assert service.counters.relinks == 2
        assert snapshot.version == 2
        assert snapshot.records_ingested == service.counters.records_in == 10
        assert {k: snapshot.links[k] for k in _LINKS} == _LINKS
        assert all(snapshot.links.get(f"p{k}") == f"q{k}" for k in range(3))

    def test_nothing_queued_means_no_relink(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                await service.flush()
                before = service.counters.relinks
                await asyncio.sleep(0.2)
                return before, service.counters.relinks, service.snapshot()

        before, after, snapshot = asyncio.run(run())
        assert before == after == 1
        assert snapshot.version == 1

    def test_published_snapshot_covers_only_applied_events(self):
        """An event accepted while a relink runs is not in that relink's
        snapshot, so neither its records nor its event time are either."""

        async def run():
            service = LinkageService(origin=0.0)
            gate, entered = threading.Event(), threading.Event()
            _gate(service, "relink", gate, entered)
            published = []
            publish = service._publish

            def recording_publish(*args):
                publish(*args)
                published.append(service.snapshot())

            service._publish = recording_publish
            async with service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                await _until(entered.is_set)
                await service.submit("left", [_rec("p", 70.0, lat=37.60)])
                gate.set()
                await service.flush()
            return published

        first, second = asyncio.run(run())
        assert (first.version, first.watermark, first.records_ingested) == (
            1, 50.0, 4
        )
        assert (second.version, second.watermark, second.records_ingested) == (
            2, 70.0, 5
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_OP, min_size=1, max_size=14))
    def test_any_schedule_ends_at_the_offline_relink(self, ops):
        """Random submit / retire / flush sequences, with random yields so
        relink boundaries vary: the final flushed snapshot equals one
        offline relink over the same events, in links and scores."""
        applied = []

        async def run():
            service = LinkageService(origin=0.0, config=_PROPERTY_CONFIG)
            async with service:
                known = {"left": set(), "right": set()}
                submits = Counter()
                seed = [("submit", side, k, False) for side in known for k in (0, 1)]
                for kind, side, entity, yields in seed + ops:
                    name = f"{side[0]}{entity}"
                    if kind == "submit":
                        records = _visits(side, entity, submits[name])
                        submits[name] += 1
                        await service.submit(side, records)
                        applied.append(("observe", side, records))
                        known[side].add(name)
                    elif kind == "retire" and known[side] > {name}:  # never empty
                        await service.retire(side, [name])
                        applied.append(("retire", side, [name]))
                        known[side].discard(name)
                    elif kind == "flush":
                        await service.flush()
                    if yields:
                        await asyncio.sleep(0)
                return await service.flush()

        snapshot = asyncio.run(run())
        offline = StreamingLinker(0.0, _PROPERTY_CONFIG)
        for kind, side, payload in applied:
            getattr(offline, kind)(side, payload)
        report = offline.relink()
        assert dict(snapshot.links) == report.links
        assert dict(snapshot.link_scores) == report.link_scores

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


class TestIdleFlush:
    def test_two_flushes_give_one_version_and_one_relink(self):
        async def run():
            async with LinkageService(origin=0.0) as service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                first = await service.flush()
                second = await service.flush()
                return first, second, service.counters.relinks

        first, second, relinks = asyncio.run(run())
        assert second is first
        assert (first.version, relinks) == (1, 1)

    def test_idle_flush_writes_no_checkpoint(self, tmp_path):
        async def run():
            service = LinkageService(origin=0.0, state_dir=tmp_path / "state")
            saves = []
            save = service.linker.save
            service.linker.save = lambda directory: saves.append(save(directory))
            async with service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                await service.flush()
                await service.flush()
            return saves

        assert len(asyncio.run(run())) == 1

    def test_flush_after_a_failed_background_relink_relinks(self):
        """The failed batch is folded in but unpublished, so a flush with
        nothing queued still relinks and publishes it."""

        async def run():
            service = LinkageService(origin=0.0)
            relink = service.linker.relink
            calls = []

            def fails_once():
                calls.append(None)
                if len(calls) == 1:
                    raise RuntimeError("injected relink failure")
                return relink()

            service.linker.relink = fails_once
            async with service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                await _until(lambda: service.counters.relink_failures)
                assert service.snapshot().version == 0
                return await service.flush(), service

        snapshot, service = asyncio.run(run())
        assert snapshot.version == 1
        assert dict(snapshot.links) == _LINKS
        assert (service.counters.relinks, service.counters.relink_failures) == (1, 1)

    def test_first_flush_of_a_restored_service_publishes_its_state(self, tmp_path):
        state_dir = tmp_path / "state"

        async def first_life():
            async with LinkageService(0.0, state_dir=state_dir) as service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                return await service.flush()

        async def second_life():
            async with LinkageService(0.0, state_dir=state_dir) as service:
                return await service.flush()

        before = asyncio.run(first_life())
        after = asyncio.run(second_life())
        assert after.version == 1
        assert dict(after.links) == dict(before.links) == _LINKS
        assert dict(after.link_scores) == dict(before.link_scores)


class TestBackpressure:
    def test_reject_raises_when_queue_full(self):
        async def run():
            config = LinkageConfig(serve_queue_depth=2, serve_backpressure="reject")
            service = LinkageService(origin=0.0, config=config)
            gate, entered = threading.Event(), threading.Event()
            _gate(service, "relink", gate, entered)
            async with service:
                await service.submit("left", [_rec("u", 10.0)])
                await service.submit("right", [_rec("v", 40.0)])
                await _until(entered.is_set)  # pump held inside relink
                await service.submit("left", [_rec("w", 70.0)])
                await service.submit("left", [_rec("x", 80.0)])
                with pytest.raises(BackpressureError, match="queue full"):
                    await service.submit("left", [_rec("y", 90.0)])
                rejected = service.counters.rejected
                gate.set()
                await service.flush()
            return service, rejected

        service, rejected = asyncio.run(run())
        assert rejected == 1
        assert service.metrics()["rejected"] == 1
        # The rejected records never counted as ingested.
        assert service.counters.records_in == 4

    def test_block_waits_for_capacity_then_completes(self):
        async def run():
            config = LinkageConfig(serve_queue_depth=1, serve_backpressure="block")
            service = LinkageService(origin=0.0, config=config)
            gate, entered = threading.Event(), threading.Event()
            _gate(service, "relink", gate, entered)
            async with service:
                await service.submit("left", [_rec("u", 10.0)])
                await service.submit("right", [_rec("v", 40.0)])
                await _until(entered.is_set)  # pump held; queue drained
                await service.submit("left", [_rec("w", 70.0)])  # fills depth 1
                held = asyncio.create_task(
                    service.submit("left", [_rec("x", 80.0)])
                )
                with pytest.raises(TimeoutError):
                    await asyncio.wait_for(asyncio.shield(held), timeout=0.1)
                blocked = service.counters.blocked
                gate.set()
                assert await held == 1  # completed once capacity freed
                await service.flush()
            return blocked, service

        blocked, service = asyncio.run(run())
        assert blocked >= 1
        assert service.counters.rejected == 0
        assert service.counters.records_in == 4

    def test_pending_events_never_exceed_the_queue_depth(self):
        """The writer drains only when it is free, so a held writer leaves
        at most ``queue_depth`` events pending; a blocked producer resumes
        as the writer drains, and every event is published."""

        async def run():
            config = LinkageConfig(serve_queue_depth=3, serve_backpressure="block")
            service = LinkageService(origin=0.0, config=config)
            gate, entered = threading.Event(), threading.Event()
            _gate(service, "relink", gate, entered)
            async with service:
                await service.submit("left", _LEFT)
                await service.submit("right", _RIGHT)
                await _until(entered.is_set)

                async def producer():
                    for k in range(10):
                        place = {"lat": 37.50 - 0.02 * k, "lng": -122.30}
                        await service.submit("left", [_rec(f"p{k}", 70.0, **place)])

                producing = asyncio.create_task(producer())
                await _until(lambda: service.counters.blocked)
                depth = service.metrics()["queue_depth"]
                gate.set()
                await producing
                return depth, await service.flush(), service.metrics()

        depth, snapshot, metrics = asyncio.run(run())
        assert depth == 3
        assert metrics["queue_peak"] == 3
        assert snapshot.records_ingested == metrics["records_in"] == 14

    def test_per_source_cap_rejects_chatty_source_only(self):
        async def run():
            config = LinkageConfig(serve_queue_depth=100, serve_backpressure="reject")
            service = LinkageService(
                origin=0.0, config=config, max_pending_per_source=1
            )
            gate = threading.Event()
            _gate(service, "relink", gate)
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

    def test_a_rejected_event_drops_nothing_else_from_its_batch(self, tmp_path):
        """An unknown-id retire and a record before the origin drained in
        one batch with good events are rejected alone: the good events
        are in the next snapshot, the refused ones in no tally, the
        batch's flush caller gets the first error after that publish, and
        a restart from ``state_dir`` equals the offline replay of the good
        events.  The writer is held inside the first relink so the
        refused events, both submits and the flush drain as one batch."""
        state_dir = tmp_path / "state"

        async def first_life():
            service = LinkageService(origin=0.0, state_dir=state_dir)
            gate, entered = threading.Event(), threading.Event()
            _gate(service, "relink", gate, entered)
            async with service:
                await service.submit("left", [_LEFT[0]])
                await service.submit("right", [_RIGHT[0]])
                await _until(entered.is_set)
                await service.retire("left", ["nobody"])
                await service.submit("left", [_LEFT[1]])
                await service.submit("right", [_rec("early", -5.0)])
                await service.submit("right", [_RIGHT[1]])
                flush_task = asyncio.create_task(service.flush())
                await _until(lambda: service._queue.qsize() == 5)
                gate.set()
                with pytest.raises(KeyError, match="nobody"):
                    await flush_task
                snapshot = service.snapshot()
                # A batch of refused events alone changes nothing: no relink.
                await service.retire("left", ["nobody"])
                with pytest.raises(KeyError, match="nobody"):
                    await service.flush()
                assert service.snapshot() is snapshot
                return snapshot, service

        async def second_life():
            async with LinkageService(origin=0.0, state_dir=state_dir) as service:
                return await service.flush()

        snapshot, service = asyncio.run(first_life())
        assert dict(snapshot.links) == _LINKS
        assert snapshot.records_ingested == service.counters.records_in == 4
        assert service.counters.records_retired == 0
        assert service.linker.num_left_entities == 2
        assert service.linker.num_right_entities == 2
        assert service.counters.relink_failures == 3
        assert isinstance(service.last_error, KeyError)

        offline = StreamingLinker(0.0)
        offline.observe("left", [_LEFT[0]])
        offline.observe("right", [_RIGHT[0]])
        offline.relink()
        offline.observe("left", [_LEFT[1]])
        offline.observe("right", [_RIGHT[1]])
        report = offline.relink()
        restarted = asyncio.run(second_life())
        assert dict(restarted.links) == dict(report.links) == _LINKS
        assert restarted.link_scores == report.link_scores

    def test_a_refused_record_moves_no_watermark(self):
        """A record the linker refuses (NaN latitude) drained in one batch
        with good ones: the snapshot publishes the linker's watermark, not
        the refused record's time, and the front end's watermark drops it
        too (zero staleness).  The next good record moves both."""

        async def run():
            async with LinkageService(origin=1000.0) as service:
                await service.submit("left", [_rec("u", 2000.0)])
                await service.submit("right", [_rec("v", 2100.0)])
                await service.submit("left", [_rec("bad", 99999.0, lat=math.nan)])
                with pytest.raises(ValueError):
                    await service.flush()
                refused = (service.snapshot(), service.metrics()["staleness_s"])
                await service.submit("left", [_rec("u", 2200.0)])
                return refused, await service.flush(), service

        (snapshot, staleness), after, service = asyncio.run(run())
        assert snapshot.version == 1  # the three records drained as one batch
        assert snapshot.watermark == 2100.0
        assert staleness == 0.0
        assert snapshot.records_ingested == 2
        assert after.watermark == 2200.0 == service.linker.watermark
        assert service.metrics()["staleness_s"] == 0.0


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

    def test_relink_latency_history_is_bounded(self, monkeypatch):
        """One relink latency per publish, kept in the same bounded window
        as the query latencies — a long-running service does not grow it."""
        monkeypatch.setattr(service_module, "_LATENCY_WINDOW", 3)

        async def run():
            async with LinkageService(origin=0.0) as service:
                for hour in range(6):
                    await service.submit("left", [_rec("u", 3600.0 * hour + 10.0)])
                    await service.submit("right", [_rec("v", 3600.0 * hour + 40.0)])
                    await service.flush()
                return service

        service = asyncio.run(run())
        assert service.counters.relinks == 6
        assert len(service.counters.relink_seconds) == 3
        assert math.isfinite(service.metrics()["relink_p50_s"])


class TestValidation:
    def test_unknown_backpressure_policy_named(self):
        with pytest.raises(ValueError, match="serve_backpressure"):
            LinkageService(origin=0.0, config=LinkageConfig(serve_backpressure="bogus"))

    def test_bad_queue_depth_named(self):
        with pytest.raises(ValueError, match="serve_queue_depth"):
            LinkageService(origin=0.0, config=LinkageConfig(serve_queue_depth=0))

    def test_bad_source_cap_named(self):
        with pytest.raises(ValueError, match="max_pending_per_source"):
            LinkageService(origin=0.0, max_pending_per_source=-1)

    def test_config_serve_fields_flow_through(self):
        config = LinkageConfig(serve_queue_depth=7, serve_backpressure="reject")

        async def run():
            async with LinkageService(origin=0.0, config=config) as service:
                return service, service._queue.maxsize

        service, maxsize = asyncio.run(run())
        assert service.config is config
        assert maxsize == 7

    @pytest.mark.parametrize(
        "keyword", ["batch_records", "max_staleness", "queue_depth", "backpressure"]
    )
    def test_retired_keywords_are_gone(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            LinkageService(origin=0.0, **{keyword: 1})

    @pytest.mark.parametrize("name", ["serve_batch", "serve_staleness"])
    def test_debounce_fields_are_gone(self, name):
        with pytest.raises(ValueError, match=f"unknown LinkageConfig field '{name}'"):
            LinkageConfig.from_dict({name: 1})
