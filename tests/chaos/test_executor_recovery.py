"""Executor recovery under injected faults.

The resilience contract: a dispatch hit by transient exceptions, worker
crashes, hung blocks or corrupt payloads must still return every value —
bit-identical to a fault-free run — or, past the retry budget, report the
failure in the :class:`TaskResult` error slot without killing the fan-out.
Fault schedules are deterministic (:mod:`repro.exec.faults`), so these
tests assert exact values, not probabilities.
"""

from concurrent.futures import ProcessPoolExecutor, wait

import pytest

from repro.exec import (
    FaultPlan,
    TaskError,
    create_executor,
    fault_plans,
    inject,
    raise_on_task_errors,
)
from repro.pipeline import LinkageConfig, LinkagePipeline

BACKENDS = ("serial", "thread", "process")

#: Seed used for every registry plan here; any value works — the point is
#: that the same seed must yield the same recovery story on every backend.
SEED = 3


def _affine(payload, item):
    """Top-level (picklable) pure task."""
    return payload * item + 1


class TestMapBlocksRecovery:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize(
        "plan_name", ("transient", "crash", "corrupt", "timeout", "mixed")
    )
    def test_recovered_values_bit_identical(self, name, plan_name):
        """Every seeded builtin plan, under every backend: all 24 values
        recover and equal the fault-free expectation."""
        plan = fault_plans.get(plan_name)(SEED)
        items = list(range(24))
        expected = [_affine(5, item) for item in items]
        with inject(plan):
            with create_executor(
                name, workers=2, timeout=0.1, backoff=0.0
            ) as executor:
                results = executor.map_blocks(_affine, items, payload=5)
        assert [r.value for r in results] == expected
        assert all(r.ok for r in results)
        assert executor.stats.faults >= len(plan)
        assert executor.stats.retries >= len(plan)
        assert executor.stats.task_errors == 0

    @pytest.mark.parametrize("name", BACKENDS)
    def test_same_plan_same_story_twice(self, name):
        """Determinism: two fresh executors under the same plan agree on
        values *and* on every fault counter."""
        plan = fault_plans.get("transient")(SEED)
        stories = []
        for _ in range(2):
            with inject(plan):
                with create_executor(name, workers=2, backoff=0.0) as executor:
                    results = executor.map_blocks(
                        _affine, list(range(16)), payload=2
                    )
            stories.append(
                (
                    [(r.value, r.error, r.attempts) for r in results],
                    executor.stats.fault_summary(),
                )
            )
        assert stories[0] == stories[1]

    def test_process_crash_counts_worker_crashes(self):
        plan = fault_plans.get("crash")(SEED)
        with inject(plan):
            with create_executor("process", workers=2, backoff=0.0) as executor:
                results = executor.map_blocks(_affine, list(range(16)), payload=1)
        assert [r.value for r in results] == [item + 1 for item in range(16)]
        assert executor.stats.worker_crashes >= 1

    def test_pool_broken_before_every_block_is_submitted(self, monkeypatch):
        """A scheduled crash that kills the pool while blocks are still
        being submitted: the later submits meet a broken pool, and the
        dispatch still returns every value, with the counters of a run
        whose submits all came first."""
        plan = FaultPlan.from_spec("crash@7;crash@8;crash@9")

        def run():
            with inject(plan):
                with create_executor(
                    "process", workers=2, backoff=0.0
                ) as executor:
                    results = executor.map_blocks(
                        _affine, list(range(24)), payload=5
                    )
            return [r.value for r in results], executor.stats.fault_summary()

        undisturbed = run()
        assert undisturbed[0] == [5 * item + 1 for item in range(24)]
        assert undisturbed[1]["worker_crashes"] == 1
        submit = ProcessPoolExecutor.submit

        def submit_then_await_the_crash(pool, fn, task):
            future = submit(pool, fn, task)
            if task[1:] == (7, 0):
                # Block 7's worker dies; the pool is marked broken before
                # its futures fail, so every later submit raises.
                wait([future])
            return future

        monkeypatch.setattr(
            ProcessPoolExecutor, "submit", submit_then_await_the_crash
        )
        assert run() == undisturbed

    @pytest.mark.parametrize("name", ("thread", "process"))
    def test_timeout_counted_on_parallel_backends(self, name):
        plan = FaultPlan.from_spec("timeout@1~0.3")
        with inject(plan):
            with create_executor(
                name, workers=2, timeout=0.05, backoff=0.0
            ) as executor:
                results = executor.map_blocks(_affine, list(range(4)), payload=3)
        assert [r.value for r in results] == [3 * item + 1 for item in range(4)]
        assert executor.stats.timeouts >= 1

    @pytest.mark.parametrize("name", BACKENDS)
    def test_poisoned_block_fails_clean(self, name):
        """A permanent fault exhausts its budget and lands in the error
        slot; every other block still returns its value and the dispatch
        itself does not raise."""
        plan = FaultPlan.from_spec("transient@1*99")
        with inject(plan):
            with create_executor(
                name, workers=2, retries=1, backoff=0.0
            ) as executor:
                results = executor.map_blocks(_affine, list(range(4)), payload=1)
        assert results[1].error is not None
        assert not results[1].ok
        assert results[1].value is None
        assert [r.value for r in results if r.ok] == [1, 3, 4]
        assert executor.stats.task_errors == 1
        with pytest.raises(TaskError, match="1 scoring task"):
            raise_on_task_errors(results, "scoring")

    @pytest.mark.parametrize("name", ("thread", "process"))
    def test_degrades_to_serial_oracle(self, name):
        """Past ``max_failures`` failed attempts the dispatch finishes
        inline — degraded, but complete and correct."""
        plan = FaultPlan.from_spec("transient@0;transient@2;transient@4")
        with inject(plan):
            with create_executor(
                name, workers=2, max_failures=1, backoff=0.0
            ) as executor:
                results = executor.map_blocks(_affine, list(range(8)), payload=2)
        assert executor.stats.degraded is True
        assert [r.value for r in results] == [2 * item + 1 for item in range(8)]

    def test_env_variable_drives_injection(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "transient@0")
        executor = create_executor("serial", backoff=0.0)
        results = executor.map_blocks(_affine, [7], payload=0)
        assert results[0].value == 1
        assert results[0].attempts == 2
        assert executor.stats.faults == 1


class TestPipelineRecovery:
    """A fault-injected linkage run must end with the same links, scores
    and counters as a clean one — the scoring fan-out heals itself."""

    def _clean_report(self, pair, config):
        # The empty installed plan masks any REPRO_FAULTS the CI chaos job
        # exported — this baseline must be genuinely fault-free.
        with inject(FaultPlan()):
            return LinkagePipeline(config).run(pair.left, pair.right)

    @pytest.mark.parametrize("name", ("serial", "thread", "process"))
    def test_faulted_run_matches_clean_run(self, sm_pair, name):
        config = LinkageConfig(executor=name, workers=2)
        clean = self._clean_report(sm_pair, config)
        assert "faults" not in clean.extras
        plan = FaultPlan.from_spec("transient@0;crash@1")
        with inject(plan):
            faulted = LinkagePipeline(config).run(sm_pair.left, sm_pair.right)
        assert faulted.links == clean.links
        assert faulted.matched_edges == clean.matched_edges
        assert faulted.edges == clean.edges
        assert faulted.stats == clean.stats
        assert faulted.candidate_pairs == clean.candidate_pairs
        assert faulted.threshold.threshold == clean.threshold.threshold
        assert faulted.extras["executor"]["name"] == name
        assert faulted.extras["faults"]["faults"] >= 2
        assert "degraded" not in faulted.extras

    def test_degraded_run_still_completes(self, sm_pair):
        """A borrowed executor with no failure headroom degrades mid-run;
        the report says so and the links are still exact."""
        config = LinkageConfig()
        clean = self._clean_report(sm_pair, config)
        plan = FaultPlan.from_spec("transient@0;transient@1")
        executor = create_executor(
            "thread", workers=2, max_failures=0, backoff=0.0
        )
        try:
            with inject(plan):
                report = LinkagePipeline(config).run(
                    sm_pair.left, sm_pair.right, executor=executor
                )
        finally:
            executor.shutdown()
        assert report.extras["degraded"] is True
        assert report.extras["faults"]["degraded"] is True
        assert report.links == clean.links
        assert report.stats == clean.stats

    def test_config_timeout_and_retries_reach_the_executor(self, sm_pair):
        """The new config fields plumb through to the owned executor: a
        hung first block is timed out, retried and the run matches the
        clean baseline."""
        config = LinkageConfig(
            executor="thread", workers=2, timeout=0.05, retries=2
        )
        clean = self._clean_report(sm_pair, config)
        plan = FaultPlan.from_spec("timeout@0~0.3")
        with inject(plan):
            report = LinkagePipeline(config).run(sm_pair.left, sm_pair.right)
        assert report.extras["faults"]["timeouts"] >= 1
        assert report.links == clean.links
        assert report.stats == clean.stats
