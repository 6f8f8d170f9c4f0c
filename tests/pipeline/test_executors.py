"""Executor parity: serial, thread and process backends must produce
bit-identical links, scores and counters.

Shard boundaries are the same under every backend and the batch kernel is
dispatch-deterministic (see :mod:`repro.core.kernels`), so these are exact
``==`` assertions, not tolerances — the contract the ISSUE pins on the
check-in and taxi synthetic workloads.
"""

import pytest

from repro.exec import FaultPlan, TaskError, create_executor, inject
from repro.pipeline import LinkageConfig, LinkagePipeline

BACKENDS = ("serial", "thread", "process")


def _run_all_backends(pair, workers=2, **knobs):
    reports = {}
    for name in BACKENDS:
        config = LinkageConfig(executor=name, workers=workers, **knobs)
        reports[name] = LinkagePipeline(config).run(pair.left, pair.right)
    return reports


def _assert_identical(reports):
    baseline = reports["serial"]
    for name in ("thread", "process"):
        report = reports[name]
        assert report.links == baseline.links, name
        assert report.matched_edges == baseline.matched_edges, name
        # Edge is a dataclass: == compares entity ids and exact weights.
        assert report.edges == baseline.edges, name
        assert report.stats == baseline.stats, name
        assert report.candidate_pairs == baseline.candidate_pairs, name
        assert report.threshold.threshold == baseline.threshold.threshold, name


class TestBitIdenticalBackends:
    def test_checkin_workload(self, sm_pair):
        """The sparse check-in world: ~10k brute-force pairs, several
        SCORE_BLOCK_SIZE shards — under every backend, serial included,
        every shard is a task of the named executor."""
        reports = _run_all_backends(sm_pair)
        _assert_identical(reports)
        for name in BACKENDS:
            info = reports[name].extras["executor"]
            assert info["name"] == name
            assert info["shards"] >= 2
            assert len(reports[name].shard_timings["scoring"]) == info["shards"]
        assert len({r.extras["executor"]["shards"] for r in reports.values()}) == 1

    def test_taxi_workload(self, cab_pair):
        """The dense taxi world is small; shrink the shard size so its
        candidate set spans several shards and the dense-matrix kernel
        path is exercised under every backend."""
        reports = _run_all_backends(cab_pair, score_block_size=48)
        _assert_identical(reports)
        for name in BACKENDS:
            assert reports[name].extras["executor"]["shards"] == 3

    def test_python_backend_stays_serial(self, cab_pair):
        """The scalar oracle never shards: it is one pair at a time by
        definition, so whatever executor is named its whole loop is one
        task of the serial executor — timed, retried and fault-injected
        like any other task."""
        config = LinkageConfig(executor="process", workers=2, score_block_size=48)
        config = config.without(
            similarity=config.similarity.without(backend="python")
        )
        with inject(FaultPlan()):
            clean = LinkagePipeline(config).run(cab_pair.left, cab_pair.right)
        (seconds,) = clean.shard_timings["scoring"]
        assert 0.0 < seconds <= clean.timings["scoring"]
        assert clean.extras["executor"] == {
            "name": "serial",
            "workers": 1,
            "shards": 1,
        }
        with inject(FaultPlan.from_spec("transient@0")):
            report = LinkagePipeline(config).run(cab_pair.left, cab_pair.right)
        assert report.extras["faults"]["retries"] == 1
        assert report.edges == clean.edges
        assert report.stats == clean.stats

    def test_borrowed_context_executor_survives(self, sm_pair):
        """An executor lent through LinkagePipeline.run is used but not
        shut down — repeated runs share one pool."""
        executor = create_executor("thread", workers=2)
        try:
            pipeline = LinkagePipeline(LinkageConfig(score_block_size=512))
            first = pipeline.run(sm_pair.left, sm_pair.right, executor=executor)
            second = pipeline.run(sm_pair.left, sm_pair.right, executor=executor)
            assert first.extras["executor"]["name"] == "thread"
            assert first.links == second.links
            assert executor.stats.dispatches >= 2
        finally:
            executor.shutdown()


class TestSerialIsAnExecutor:
    """``executor="serial"`` is the registry's ``SerialExecutor``, not a
    loop beside it: the retry budget and an injected fault plan reach its
    score blocks exactly as they reach ``thread`` / ``process`` ones."""

    def test_serial_reports_per_shard_timings_too(self, sm_pair):
        report = LinkagePipeline(LinkageConfig(executor="serial")).run(
            sm_pair.left, sm_pair.right
        )
        shards = report.shard_timings["scoring"]
        assert len(shards) >= 2  # ~10k pairs / 4096 per shard
        assert report.extras["executor"] == {
            "name": "serial",
            "workers": 1,
            "shards": len(shards),
        }

    @pytest.mark.parametrize("name", BACKENDS)
    def test_transient_faults_are_retried(self, sm_pair, name):
        config = LinkageConfig(executor=name, workers=2)
        with inject(FaultPlan()):  # masks any REPRO_FAULTS of the environment
            clean = LinkagePipeline(config).run(sm_pair.left, sm_pair.right)
        with inject(FaultPlan.from_spec("transient@0;transient@1")):
            report = LinkagePipeline(config).run(sm_pair.left, sm_pair.right)
        assert "faults" not in clean.extras
        faults = report.extras["faults"]
        assert (faults["faults"], faults["retries"]) == (2, 2)
        assert faults["task_errors"] == 0 and not faults["degraded"]
        assert report.links == clean.links
        assert report.edges == clean.edges
        assert report.stats == clean.stats

    def test_no_retry_budget_surfaces_the_fault(self, sm_pair):
        config = LinkageConfig(executor="serial", retries=0)
        with inject(FaultPlan.from_spec("transient@0")):
            with pytest.raises(TaskError, match="1 scoring task"):
                LinkagePipeline(config).run(sm_pair.left, sm_pair.right)


class TestConfigSurface:
    def test_defaults(self):
        config = LinkageConfig()
        assert config.executor == "auto"
        assert config.workers == 0

    def test_round_trip(self):
        config = LinkageConfig(executor="process", workers=4)
        assert LinkageConfig.from_dict(config.to_dict()) == config

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="registered executors"):
            LinkageConfig(executor="gpu")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            LinkageConfig(workers=-1)

    def test_wrong_typed_executor_rejected(self):
        with pytest.raises(ValueError, match="'executor'"):
            LinkageConfig.from_dict({"executor": 4})

    def test_wrong_typed_workers_rejected(self):
        with pytest.raises(ValueError, match="'workers'"):
            LinkageConfig.from_dict({"workers": "all"})

    def test_resilience_defaults(self):
        config = LinkageConfig()
        assert config.timeout == 0.0
        assert config.retries == 2

    def test_resilience_round_trip(self):
        config = LinkageConfig(timeout=1.5, retries=5)
        assert LinkageConfig.from_dict(config.to_dict()) == config

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            LinkageConfig(timeout=-0.5)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            LinkageConfig(retries=-1)

    def test_wrong_typed_timeout_rejected(self):
        with pytest.raises(ValueError, match="'timeout'"):
            LinkageConfig.from_dict({"timeout": "soon"})

    def test_wrong_typed_retries_rejected(self):
        with pytest.raises(ValueError, match="'retries'"):
            LinkageConfig.from_dict({"retries": "lots"})
