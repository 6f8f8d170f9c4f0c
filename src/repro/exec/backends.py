"""Execution backends: *how* independent work units run.

The linkage pipeline's expensive fan-outs — score blocks inside
:class:`~repro.pipeline.stages.ScoringStage`, spatial levels inside the
auto-tuning sweep, grid cells inside the evaluation harness — are all
embarrassingly parallel: a list of independent items mapped through a pure
function of some shared read-only state.  This module separates that
*execution strategy* from the stage semantics behind one small protocol:

* :class:`Executor` — ``map_blocks(fn, items, payload)`` applies
  ``fn(payload, item)`` to every item and returns per-item
  :class:`TaskResult`\\ s **in item order**; ``shutdown()`` releases any
  worker resources (idempotent; executors are also context managers);
  :attr:`Executor.stats` counts dispatches/tasks/busy seconds and fault
  recovery;
* the :data:`executors` registry with three built-in backends:

  - ``"serial"`` — no workers, every block inline.  The parity oracle:
    every other backend must reproduce its results bit for bit;
  - ``"thread"`` — a shared :class:`~concurrent.futures.ThreadPoolExecutor`.
    Cheap to start; wins exactly as much as the mapped function releases
    the GIL (the numpy batch kernel does, partially);
  - ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
    Under the ``fork`` start method (Linux) the payload — e.g. both
    history corpora with their materialised array views — is shipped to
    every worker **once**, by page-sharing inheritance, not per task;
    only the per-task items and results cross the pipe.

One dispatch loop, three hooks
-----------------------------
``map_blocks`` is written once, on the built-in backends' shared base:
it numbers the blocks (executor-lifetime ordinals, the key of a
:class:`~repro.exec.faults.FaultPlan`), submits the pending ones, collects
them in submission order, classifies each failure, retries within the
budget (``retries``, deterministic exponential backoff), gives a block
whose budget was spent in a worker one last inline attempt, and accounts
the dispatch in :attr:`Executor.stats`.  A backend states only how a
block is *submitted* (``_open``: ``None`` means no workers, every block
inline — that is ``"serial"``), what a dispatch leaves behind
(``_close``: the process backend kills its pool) and whether a block that
exceeds the optional per-block ``timeout`` condemns the pool (process
only: its worker may be hung, so the pool is killed and respawned, as it
is after a crashed worker —
:class:`~concurrent.futures.process.BrokenProcessPool` — and the
interrupted innocent blocks are re-dispatched without consuming their
budget).  ``timeout`` cannot apply to ``"serial"``: a frame cannot
preempt itself.

When one dispatch accumulates more than ``max_failures`` failed attempts
the loop *degrades*: it stops submitting and everything still pending
runs inline so the run completes (``stats.degraded``).  A task that fails
past its budget carries an ``error`` in its :class:`TaskResult` — the
dispatch itself never raises, so one poisoned block cannot kill a
fan-out; callers that cannot tolerate a missing value end with
:func:`raise_on_task_errors`.  Because retried blocks recompute the same
pure function over the same inputs, recovered dispatches stay
**bit-identical** to fault-free ones — pinned by ``tests/chaos/``; that
one plan tells the same story under every backend name, for every sweep,
by ``tests/exec/test_one_fanout_route.py``.  Deterministic fault
*injection* lives in :mod:`repro.exec.faults` (``REPRO_FAULTS``).

Results are deterministic by construction: items are mapped one-to-one and
returned in submission order, so a caller that shards deterministically
gets bit-identical output from every backend (pinned by
``tests/pipeline/test_executors.py``).

Backend selection honours the ``REPRO_EXECUTOR`` / ``REPRO_WORKERS``
environment overrides when a config leaves them on ``"auto"`` / ``0`` —
that is how the CI executor matrix runs the same test suite under every
backend.

>>> executor = create_executor("serial")
>>> [task.value for task in executor.map_blocks(
...     lambda payload, item: payload + item, [1, 2, 3], payload=10)]
[11, 12, 13]
>>> executor.stats.tasks
3
"""

from __future__ import annotations

import multiprocessing
import os
# repro-lint: timing-module -- backends measure task busy-seconds and retry backoff
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from ..registry import Registry
from .faults import (
    CorruptResult,
    FaultPlan,
    InjectedFault,
    active_fault_plan,
    trigger_fault,
)

__all__ = [
    "AUTO_EXECUTOR",
    "ENV_EXECUTOR",
    "ENV_WORKERS",
    "Executor",
    "ExecutorStats",
    "TaskError",
    "TaskResult",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "executors",
    "create_executor",
    "as_executor",
    "raise_on_task_errors",
    "resolve_executor_name",
    "resolve_worker_count",
]

#: Config value meaning "let the environment decide" (``REPRO_EXECUTOR``,
#: else ``"serial"``).
AUTO_EXECUTOR = "auto"

#: Environment override applied to ``executor="auto"`` configs — the CI
#: executor matrix sets this to run the suite under every backend.
ENV_EXECUTOR = "REPRO_EXECUTOR"

#: Environment override applied to ``workers=0`` configs.
ENV_WORKERS = "REPRO_WORKERS"

#: Default retry budget per task (attempts beyond the first).
DEFAULT_RETRIES = 2

#: Default failed-attempt budget per dispatch before the backend degrades
#: to the serial oracle for everything still pending.
DEFAULT_MAX_FAILURES = 3

#: Base of the deterministic exponential backoff between retry rounds
#: (``backoff * 2**attempt`` seconds; no jitter — determinism).
DEFAULT_BACKOFF = 0.05

#: Task function: ``fn(payload, item) -> value``.  For the process backend
#: it must be a module-level (picklable-by-reference) function.
TaskFn = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class TaskResult:
    """One mapped item's outcome.

    ``value`` plus the worker-measured wall-clock seconds spent inside
    the task function (IPC excluded).  ``error`` is ``None`` for a
    successful task; a task that kept failing after its retry budget
    *and* the inline serial fallback carries the formatted exception here
    (with ``value=None``) instead of aborting the whole dispatch.
    ``attempts`` counts executions of this item (1 = first try clean).
    """

    value: Any
    seconds: float
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the task produced a value."""
        return self.error is None


class TaskError(RuntimeError):
    """Raised by fan-out *callers* (via :func:`raise_on_task_errors`)
    when a dispatch came back with permanently failed tasks.  Raised only
    after the full dispatch completed and pools were released — a clean
    failure, not a mid-flight abort."""

    def __init__(self, what: str, failures: Sequence[Tuple[int, str]]) -> None:
        self.failures = list(failures)
        lines = "; ".join(
            f"item {index}: {error.splitlines()[-1] if error else 'failed'}"
            for index, error in self.failures
        )
        super().__init__(
            f"{len(self.failures)} {what} task(s) failed permanently: {lines}"
        )


def raise_on_task_errors(
    results: Sequence[TaskResult], what: str
) -> Sequence[TaskResult]:
    """Raise :class:`TaskError` if any result carries an error; otherwise
    return ``results`` unchanged.  The standard epilogue of a fan-out that
    cannot tolerate missing values."""
    failures = [
        (index, result.error)
        for index, result in enumerate(results)
        if result.error is not None
    ]
    if failures:
        raise TaskError(what, failures)
    return results


@dataclass
class ExecutorStats:
    """Mutable counters accumulated by an executor across dispatches.

    ``busy_seconds`` sums the per-task seconds of every
    :class:`TaskResult` — compared against a stage's wall-clock time it
    yields the realised parallel speedup (see
    :func:`repro.eval.reporting.parallel_efficiency_table`).

    The fault counters record recovery work: ``faults`` counts failed
    task attempts (including recovered ones), ``retries`` the
    re-submissions they caused, ``timeouts`` / ``worker_crashes`` the
    infrastructure subsets, ``task_errors`` the tasks that stayed failed
    after every recovery path, and ``degraded`` whether any dispatch fell
    back to the serial oracle mid-flight.
    """

    dispatches: int = 0
    tasks: int = 0
    busy_seconds: float = 0.0
    faults: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    task_errors: int = 0
    degraded: bool = False

    def account(self, results: Sequence[TaskResult]) -> None:
        """Fold one dispatch's results into the counters."""
        self.dispatches += 1
        self.tasks += len(results)
        self.busy_seconds += sum(result.seconds for result in results)
        self.task_errors += sum(
            1 for result in results if result.error is not None
        )

    def fault_summary(self) -> Dict[str, Any]:
        """The fault counters as one plain dict (report extras)."""
        return {
            "faults": self.faults,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "task_errors": self.task_errors,
            "degraded": self.degraded,
        }


@runtime_checkable
class Executor(Protocol):
    """Anything that can run independent work units for the pipeline.

    The built-in backends additionally honour the resilience attributes
    ``timeout`` / ``retries`` / ``max_failures`` / ``backoff`` (set by
    :func:`create_executor`) and are context managers whose ``__exit__``
    calls :meth:`shutdown` — custom registrations are encouraged, but not
    required, to do the same.
    """

    name: str
    workers: int
    stats: ExecutorStats

    def map_blocks(
        self, fn: TaskFn, items: Sequence[Any], payload: Any = None
    ) -> List[TaskResult]:  # pragma: no cover - protocol
        ...

    def shutdown(self) -> None:  # pragma: no cover - protocol
        ...


#: Execution backends; entries are factories called with the resolved
#: worker count.  Register your own with ``@executors.register("name")``.
executors: Registry[Callable[[int], Executor]] = Registry("executor")


def resolve_executor_name(name: str) -> str:
    """``"auto"`` resolution: the ``REPRO_EXECUTOR`` environment override
    when set, else ``"serial"``.  Explicit names pass through untouched —
    a config that *names* a backend is never overridden by the
    environment (the CI matrix only redirects defaulted configs)."""
    if name != AUTO_EXECUTOR:
        return name
    env = os.environ.get(ENV_EXECUTOR, "").strip()
    return env or "serial"


def resolve_worker_count(workers: int) -> int:
    """``0`` resolution: ``REPRO_WORKERS`` when set, else the machine's
    CPU count.  Explicit positive counts pass through."""
    if workers:
        return workers
    env = os.environ.get(ENV_WORKERS, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{ENV_WORKERS} must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"{ENV_WORKERS} must be a positive integer, got {env!r}"
            )
        return value
    return os.cpu_count() or 1


_RESILIENCE_ATTRS = ("timeout", "retries", "max_failures", "backoff")


def create_executor(
    name: str = AUTO_EXECUTOR,
    workers: int = 0,
    *,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    max_failures: Optional[int] = None,
    backoff: Optional[float] = None,
) -> Executor:
    """Build an executor from a backend name and a worker count.

    ``name`` may be ``"auto"`` (environment-resolved) or any registered
    backend; unknown names raise a :class:`KeyError` listing what *is*
    registered.  ``workers=0`` resolves to ``REPRO_WORKERS`` / the CPU
    count.  The keyword-only resilience knobs, when given, are set as
    plain attributes on the built executor (so they work for custom
    registrations too): ``timeout`` seconds per block (``None``/0 =
    unbounded), ``retries`` attempts beyond the first per block,
    ``max_failures`` failed attempts per dispatch before degradation to
    the serial oracle, ``backoff`` base seconds of the deterministic
    exponential retry backoff.

    Inside a daemonic pool worker (a nested fan-out — e.g. a harness grid
    cell whose pipeline itself asks for processes) the ``"process"``
    backend degrades to ``"serial"``: daemonic processes cannot spawn
    children, and silently serialising the inner level is the correct
    behaviour for nested parallelism anyway.
    """
    resolved = resolve_executor_name(name)
    factory = executors.get(resolved)
    if resolved == "process" and (
        multiprocessing.current_process().daemon or _WORKER_FN is not None
    ):
        executor: Executor = SerialExecutor()
    else:
        executor = factory(resolve_worker_count(workers))
    for attr, value in zip(
        _RESILIENCE_ATTRS, (timeout, retries, max_failures, backoff)
    ):
        if value is not None:
            setattr(executor, attr, value)
    return executor


@contextmanager
def as_executor(executor: "Optional[Executor | str]") -> Iterator[Executor]:
    """``with as_executor(executor) as resolved:`` — the one way a
    fan-out takes its ``executor`` argument.  An :class:`Executor`
    instance is borrowed and left running; a backend name is created
    here and shut down on exit, whatever the body raised; ``None`` is
    ``"serial"``."""
    if not (executor is None or isinstance(executor, str)):
        yield executor
        return
    created = create_executor(executor or "serial")
    try:
        yield created
    finally:
        created.shutdown()


# ---------------------------------------------------------------------------
# the one dispatch loop
# ---------------------------------------------------------------------------
def _describe(error: BaseException) -> str:
    """A compact, picklable rendering of a task failure."""
    return "".join(
        traceback.format_exception_only(type(error), error)
    ).strip()


def _execute_task(
    fn: TaskFn,
    payload: Any,
    item: Any,
    plan: Optional[FaultPlan],
    ordinal: int,
    attempt: int,
) -> TaskResult:
    """Run one task attempt (inside whatever worker hosts it), consulting
    the fault plan first so injected failures happen in the real
    execution frame."""
    start = time.perf_counter()
    if plan is not None:
        spec = plan.fault_for(ordinal, attempt)
        if spec is not None:
            value = trigger_fault(spec, ordinal, attempt)
            return TaskResult(
                value, time.perf_counter() - start, attempts=attempt + 1
            )
    value = fn(payload, item)
    return TaskResult(value, time.perf_counter() - start, attempts=attempt + 1)


#: What a backend's ``_open`` hands the dispatch loop:
#: ``submit(item, ordinal, attempt)`` starts one attempt in a worker.
Submit = Callable[[Any, int, int], Future[TaskResult]]


class _ResilientBase:
    """The built-in backends: :meth:`map_blocks` is written here, once
    (module docstring, "One dispatch loop, three hooks").  A backend
    overrides :meth:`_open`, :meth:`_close` and
    :attr:`timeout_condemns_pool`, nothing else of the dispatch."""

    name: str
    #: Per-block timeout in seconds (parallel backends; ``None``/0 = off).
    timeout: Optional[float] = None
    #: Retry budget per task beyond the first attempt.
    retries: int = DEFAULT_RETRIES
    #: Failed attempts per dispatch before degradation to serial.
    max_failures: int = DEFAULT_MAX_FAILURES
    #: Base seconds of the deterministic exponential retry backoff.
    backoff: float = DEFAULT_BACKOFF
    #: Whether a block that exceeds ``timeout`` makes the whole pool
    #: suspect (its worker may be hung and cannot be reclaimed): the rest
    #: of the round is then only polled and the pool is re-opened.
    timeout_condemns_pool = False

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"{self.name} executor needs at least one worker")
        self.workers = workers
        self.stats = ExecutorStats()
        self._ordinal = 0

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _open(
        self, fn: TaskFn, payload: Any, plan: Optional[FaultPlan], count: int
    ) -> Optional[Submit]:
        """Ready the workers for a dispatch of ``count`` blocks and return
        how one attempt is submitted to them — or ``None``: no workers,
        every block runs inline (the serial oracle).  Called again
        mid-dispatch when the pool was condemned."""
        return None

    def _close(self) -> None:
        """Release what a dispatch must not leave behind."""

    def shutdown(self) -> None:
        """Release every worker resource (idempotent)."""
        self._close()

    def map_blocks(
        self, fn: TaskFn, items: Sequence[Any], payload: Any = None
    ) -> List[TaskResult]:
        """``fn(payload, item)`` for every item, per-item results in item
        order; failures are retried, and past every recovery path carried
        in the ``error`` slot — the dispatch itself does not raise."""
        items = list(items)
        count = len(items)
        plan = active_fault_plan()
        base = self._ordinal
        self._ordinal += count
        timeout = self.timeout if self.timeout and self.timeout > 0 else None
        results: Dict[int, TaskResult] = {}
        attempts = [0] * count
        pending = list(range(count))
        # Blocks whose retry budget was spent in a worker: one last
        # attempt, inline, decides between a late value and a permanent
        # error.
        last: Set[int] = set()
        failures = 0
        submit = self._open(fn, payload, plan, count) if count else None
        try:
            while pending:
                futures = (
                    {}
                    if submit is None
                    else {
                        k: submit(items[k], base + k, attempts[k])
                        for k in pending
                        if k not in last
                    }
                )
                again: List[int] = []
                guilty: List[Tuple[int, Exception]] = []
                condemned = False
                for k in pending:
                    ordinal, attempt = base + k, attempts[k]
                    future = futures.get(k)
                    try:
                        if future is None:
                            result = _execute_task(
                                fn, payload, items[k], plan, ordinal, attempt
                            )
                        else:
                            result = future.result(
                                timeout=0.0 if condemned else timeout
                            )
                        if isinstance(result.value, CorruptResult):
                            raise InjectedFault("corrupt", ordinal, attempt)
                        results[k] = result
                        continue
                    except Exception as error:
                        failure = error
                    if future is None:
                        pass  # an inline attempt's exception is the task's own
                    elif isinstance(failure, FuturesTimeout):
                        # Threads cannot be killed: the stray attempt
                        # finishes harmlessly in the pool.
                        future.cancel()
                        self.stats.timeouts += 1
                        condemned = condemned or self.timeout_condemns_pool
                    elif isinstance(failure, BrokenProcessPool):
                        # The pool died; *which* block killed it is
                        # unknowable from here.  With a fault plan the
                        # scheduled crash identifies the culprit
                        # deterministically; without one, charge every
                        # interrupted block (real-world crashes).
                        if not condemned:
                            self.stats.worker_crashes += 1
                        condemned = True
                        spec = (
                            plan.fault_for(ordinal, attempt)
                            if plan is not None
                            else None
                        )
                        if plan is not None and (
                            spec is None or spec.kind != "crash"
                        ):
                            # Innocent: re-dispatched at the *same*
                            # attempt (budget and fault schedule
                            # untouched).
                            again.append(k)
                            continue
                    self.stats.faults += 1
                    failures += 1
                    guilty.append((k, failure))
                for k, failure in guilty:
                    if attempts[k] < self.retries:
                        self.stats.retries += 1
                        if self.backoff > 0:
                            time.sleep(self.backoff * 2 ** attempts[k])
                        attempts[k] += 1
                        again.append(k)
                    elif k in futures:
                        last.add(k)
                        again.append(k)
                    else:
                        results[k] = TaskResult(
                            None,
                            0.0,
                            error=_describe(failure),
                            attempts=attempts[k] + 1,
                        )
                pending = sorted(again)
                if submit is not None and failures > self.max_failures:
                    # Degrade: finish everything still pending on the
                    # serial oracle so the dispatch completes.
                    self.stats.degraded = True
                    submit = None
                elif condemned:
                    submit = self._open(fn, payload, plan, count)
        finally:
            self._close()
        final = [results[k] for k in range(count)]
        self.stats.account(final)
        return final


@executors.register("serial")
class SerialExecutor(_ResilientBase):
    """No workers: every block runs inline, in item order — the loop
    above with nothing submitted, and the parity oracle.

    Retries and fault injection apply; ``timeout`` does not (an
    in-process frame cannot preempt itself — a hung block hangs, which is
    why the parallel backends exist), and there is nothing to degrade
    to."""

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(1)


@executors.register("thread")
class ThreadExecutor(_ResilientBase):
    """A shared thread pool (created lazily, reused across dispatches).

    Wins exactly as much as the mapped function releases the GIL; the
    numpy batch kernel's array passes do, its Python orchestration does
    not — the honest curve is recorded by
    ``benchmarks/bench_parallel_scoring.py``.

    A block that exceeds ``timeout`` is abandoned (threads cannot be
    killed) and retried as a fresh submission.
    """

    name = "thread"
    _pool: Optional[ThreadPoolExecutor] = None

    def _open(
        self, fn: TaskFn, payload: Any, plan: Optional[FaultPlan], count: int
    ) -> Submit:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        pool = self._pool
        return lambda item, ordinal, attempt: pool.submit(
            _execute_task, fn, payload, item, plan, ordinal, attempt
        )

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# Worker-side state of one process dispatch.  Under the fork start method
# the initializer arguments reach every child through copy-on-write
# memory inheritance, so the task function and the (potentially large)
# payload are shipped once per pool — nothing is pickled but the per-task
# items and results.  Under spawn the initializer ships both, once per
# worker.
_WORKER_FN: Optional[TaskFn] = None
_WORKER_PAYLOAD: Any = None
_WORKER_PLAN: Optional[FaultPlan] = None


def _init_worker(
    fn: TaskFn, payload: Any, plan: Optional[FaultPlan]
) -> None:
    """Pool initializer: receive the dispatch state, once per worker."""
    global _WORKER_FN, _WORKER_PAYLOAD, _WORKER_PLAN
    _WORKER_FN = fn
    _WORKER_PAYLOAD = payload
    _WORKER_PLAN = plan


def _run_task(task: Tuple[Any, int, int]) -> TaskResult:
    """Apply the dispatch's task function to one item, in a worker."""
    item, ordinal, attempt = task
    return _execute_task(
        _WORKER_FN, _WORKER_PAYLOAD, item, _WORKER_PLAN, ordinal, attempt
    )


@executors.register("process")
class ProcessExecutor(_ResilientBase):
    """A process pool sharing read-only state by fork inheritance.

    Each dispatch forks a fresh pool: the payload must be baked into the
    workers' memory image at fork time (that is what makes shipping two
    full corpora essentially free on Linux), so pool lifetime is one
    dispatch.  Fork startup is a few milliseconds per worker; callers
    dispatch *blocks* of work, not single pairs, so the cost amortises.
    On platforms without ``fork`` the pool falls back to the default
    start method and pickles the payload once per worker.

    This is the one backend whose workers can genuinely die or hang.  A
    crashed worker surfaces as
    :class:`~concurrent.futures.process.BrokenProcessPool`; a block that
    exceeds ``timeout`` marks the pool suspect.  Either way the pool is
    killed and respawned, finished blocks keep their results, the failed
    block is retried against its budget, and innocent in-flight blocks
    are re-dispatched without consuming theirs.
    """

    name = "process"
    timeout_condemns_pool = True
    _pool: Optional[ProcessPoolExecutor] = None

    def _open(
        self, fn: TaskFn, payload: Any, plan: Optional[FaultPlan], count: int
    ) -> Submit:
        self._close()
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        pool = self._pool = ProcessPoolExecutor(
            max_workers=max(1, min(self.workers, count)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(fn, payload, plan),
        )

        def submit(item: Any, ordinal: int, attempt: int) -> Future[TaskResult]:
            try:
                return pool.submit(_run_task, (item, ordinal, attempt))
            except BrokenProcessPool as error:
                # A block submitted earlier killed the pool mid-round:
                # this one fails like the blocks in flight did, and the
                # loop charges or re-dispatches it by the same rule.
                failed: Future[TaskResult] = Future()
                failed.set_exception(error)
                return failed

        return submit

    def _close(self) -> None:
        """Tear the live pool down *now*: cancel queued work, kill
        workers (they may be hung — a graceful join could block
        forever)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
                process.join(timeout=1.0)
            except Exception:  # pragma: no cover - defensive
                pass
