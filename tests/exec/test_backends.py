"""Unit tests of the execution backends: ordering, payload delivery,
stats accounting, registry lookup and environment resolution."""

import os

import pytest

from repro.exec import (
    AUTO_EXECUTOR,
    ENV_EXECUTOR,
    ENV_WORKERS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    TaskError,
    ThreadExecutor,
    as_executor,
    create_executor,
    executors,
    raise_on_task_errors,
    resolve_executor_name,
    resolve_worker_count,
)
from repro.pipeline import LinkageConfig

BACKENDS = ("serial", "thread", "process")


def _square_plus(payload, item):
    """Top-level (picklable) task for the process backend."""
    return payload + item * item


class TestMapBlocks:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_results_in_item_order(self, name):
        executor = create_executor(name, workers=3)
        try:
            results = executor.map_blocks(
                _square_plus, list(range(10)), payload=100
            )
            assert [r.value for r in results] == [100 + k * k for k in range(10)]
            assert all(r.seconds >= 0.0 for r in results)
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_stats_accumulate(self, name):
        executor = create_executor(name, workers=2)
        try:
            executor.map_blocks(_square_plus, [1, 2, 3], payload=0)
            executor.map_blocks(_square_plus, [4], payload=0)
            assert executor.stats.dispatches == 2
            assert executor.stats.tasks == 4
            assert executor.stats.busy_seconds >= 0.0
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_items(self, name):
        executor = create_executor(name, workers=2)
        try:
            assert executor.map_blocks(_square_plus, [], payload=0) == []
        finally:
            executor.shutdown()

    def test_process_tasks_run_in_other_processes(self):
        executor = ProcessExecutor(workers=2)
        results = executor.map_blocks(_pid_task, [0, 1, 2, 3])
        pids = {r.value for r in results}
        assert os.getpid() not in pids

    def test_thread_pool_reused_until_shutdown(self):
        executor = ThreadExecutor(workers=2)
        executor.map_blocks(_square_plus, [1], payload=0)
        pool = executor._pool
        executor.map_blocks(_square_plus, [2], payload=0)
        assert executor._pool is pool
        executor.shutdown()
        assert executor._pool is None


def _pid_task(payload, item):
    return os.getpid()


class _PoisonPayload:
    """A payload whose very first use inside a worker raises (picklable,
    so it survives the trip into a process pool before detonating)."""

    def touch(self):
        raise RuntimeError("poisoned payload")


def _touch_payload(payload, item):
    return payload.touch()


class TestLifecycleEdgeCases:
    def test_process_pool_with_one_worker(self):
        with ProcessExecutor(workers=1) as executor:
            results = executor.map_blocks(_square_plus, [1, 2, 3], payload=10)
        assert [r.value for r in results] == [11, 14, 19]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_shutdown_twice_is_harmless(self, name):
        executor = create_executor(name, workers=2)
        executor.map_blocks(_square_plus, [1], payload=0)
        executor.shutdown()
        executor.shutdown()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_context_manager_releases_workers(self, name):
        with create_executor(name, workers=2) as executor:
            results = executor.map_blocks(_square_plus, [2], payload=1)
            assert results[0].value == 5
        if name == "thread":
            assert executor._pool is None
        # Already-released executors tolerate another shutdown.
        executor.shutdown()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_payload_raising_on_first_touch(self, name):
        """A payload that detonates inside the worker fails *clean*: every
        task carries an error, no value is fabricated, the dispatch
        returns (and only raise_on_task_errors escalates)."""
        with create_executor(name, workers=2, retries=1, backoff=0.0) as executor:
            results = executor.map_blocks(
                _touch_payload, [0, 1], payload=_PoisonPayload()
            )
        assert all(r.error is not None and r.value is None for r in results)
        assert "poisoned payload" in results[0].error
        assert executor.stats.task_errors == 2
        with pytest.raises(TaskError, match="2 probe task"):
            raise_on_task_errors(results, "probe")


def _nested_create(payload, item):
    """Inside a daemonic pool worker, 'process' must degrade to serial."""
    return create_executor("process", workers=2).name


class TestRegistryAndCreation:
    def test_builtins_registered(self):
        for name in BACKENDS:
            assert name in executors

    def test_unknown_backend_fails_loud(self):
        with pytest.raises(KeyError, match="registered executor"):
            create_executor("gpu")

    def test_instances_satisfy_protocol(self):
        for name in BACKENDS:
            assert isinstance(create_executor(name, workers=1), Executor)

    def test_serial_always_one_worker(self):
        assert SerialExecutor(workers=8).workers == 1

    def test_nested_process_fanout_degrades_to_serial(self):
        executor = ProcessExecutor(workers=1)
        results = executor.map_blocks(_nested_create, [0])
        assert results[0].value == "serial"

    def test_as_executor_none(self):
        with as_executor(None) as resolved:
            assert isinstance(resolved, SerialExecutor)
            assert resolved.map_blocks(_square_plus, [3], payload=1)[0].value == 10

    def test_as_executor_name_is_owned(self):
        with pytest.raises(RuntimeError, match="body failed"):
            with as_executor("thread") as resolved:
                assert resolved.name == "thread"
                resolved.map_blocks(_square_plus, [1], payload=0)
                assert resolved._pool is not None
                raise RuntimeError("body failed")
        # Shut down on exit even though the body raised.
        assert resolved._pool is None

    def test_as_executor_instance_is_borrowed(self):
        instance = ThreadExecutor(workers=2)
        try:
            with as_executor(instance) as resolved:
                assert resolved is instance
                resolved.map_blocks(_square_plus, [1], payload=0)
            # Left running: the pool survives and still dispatches.
            assert instance._pool is not None
            assert instance.map_blocks(_square_plus, [2], payload=0)[0].value == 4
        finally:
            instance.shutdown()


class TestResolution:
    def test_auto_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_EXECUTOR, raising=False)
        assert resolve_executor_name(AUTO_EXECUTOR) == "serial"

    def test_auto_honours_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "thread")
        assert resolve_executor_name(AUTO_EXECUTOR) == "thread"
        assert LinkageConfig().resolved_executor() == "thread"

    def test_explicit_name_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "thread")
        assert resolve_executor_name("process") == "process"
        assert LinkageConfig(executor="process").resolved_executor() == "process"

    def test_workers_zero_resolves_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_worker_count(0) == (os.cpu_count() or 1)

    def test_workers_environment_override(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert resolve_worker_count(0) == 3
        assert LinkageConfig().resolved_workers() == 3

    def test_explicit_workers_beat_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert resolve_worker_count(5) == 5

    def test_bad_workers_environment_fails_loud(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_worker_count(0)

    def test_executor_environment_typo_fails_at_construction(self, monkeypatch):
        """A REPRO_EXECUTOR typo behind executor="auto" must fail when the
        config is built, not minutes later inside the scoring stage."""
        monkeypatch.setenv(ENV_EXECUTOR, "proces")
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            LinkageConfig()
