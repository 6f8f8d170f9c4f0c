"""Pluggable execution backends for the pipeline's parallel fan-outs.

:mod:`repro.exec.backends` holds the :class:`Executor` protocol and the
``"serial"`` / ``"thread"`` / ``"process"`` backends.  Their
``map_blocks`` is **one loop**, written once: ordinals, rounds of pending
blocks, failure classification, retry and backoff (per-block ``timeout``,
bounded ``retries``), the last inline attempt, degradation to the serial
oracle and the stats.  A backend adds three hooks — how a block is
submitted (``_open``; ``None`` = no workers, every block inline, which
*is* ``"serial"``), what a dispatch leaves behind (``_close``) and
whether a timed-out block condemns its pool.  So the same fault plan
(:mod:`repro.exec.faults`, ``REPRO_FAULTS``) tells the same story under
every backend name, and the ``REPRO_EXECUTOR`` / ``REPRO_WORKERS``
environment overrides only choose which hooks run.

Every fan-out goes through it — the scoring stage
(:class:`~repro.pipeline.stages.ScoringStage`), the auto-tuning sweep
(:mod:`repro.core.tuning`) and the evaluation harness
(:func:`~repro.eval.harness.run_grid`,
:func:`~repro.eval.harness.run_scenarios`) — taking its ``executor``
argument with ``with as_executor(executor) as resolved:`` (an instance is
borrowed, a name is created and shut down, ``None`` is ``"serial"``).
The pipeline's choice is :class:`~repro.pipeline.config.LinkageConfig`'s
``executor`` / ``workers`` / ``timeout`` / ``retries`` fields::

    from repro.pipeline import LinkageConfig, LinkagePipeline

    report = LinkagePipeline(
        LinkageConfig(executor="process", workers=4)
    ).run(left, right)
"""

from .backends import (
    AUTO_EXECUTOR,
    ENV_EXECUTOR,
    ENV_WORKERS,
    Executor,
    ExecutorStats,
    ProcessExecutor,
    SerialExecutor,
    TaskError,
    TaskResult,
    ThreadExecutor,
    as_executor,
    create_executor,
    executors,
    raise_on_task_errors,
    resolve_executor_name,
    resolve_worker_count,
)
from .faults import (
    ENV_FAULTS,
    FAULT_KINDS,
    CorruptResult,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_fault_plan,
    fault_plans,
    inject,
    install_fault_plan,
    trigger_fault,
)

__all__ = [
    "AUTO_EXECUTOR",
    "ENV_EXECUTOR",
    "ENV_FAULTS",
    "ENV_WORKERS",
    "FAULT_KINDS",
    "CorruptResult",
    "Executor",
    "ExecutorStats",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "TaskError",
    "TaskResult",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "active_fault_plan",
    "executors",
    "fault_plans",
    "create_executor",
    "as_executor",
    "inject",
    "install_fault_plan",
    "raise_on_task_errors",
    "resolve_executor_name",
    "resolve_worker_count",
    "trigger_fault",
]
