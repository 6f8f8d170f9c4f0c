"""The benchmark's only clock, and the span recorder built on it.

Every time sample the harness reports comes from a :class:`Span` opened
through :meth:`Tracer.span` — in untraced and traced runs alike, so the
timed code path is identical in both.  A span carries two durations:

* ``wall`` — ``perf_counter`` seconds, what the program's own
  ``LinkageReport.timings`` are measured in and what the layer table and
  the Chrome trace use;
* ``cpu`` — ``process_time`` seconds.  The build box is a shared VM whose
  host takes the vCPU away in episodes that last minutes (``steal`` in
  ``/proc/stat``): back-to-back runs of identical work differed 1.3-2x in
  wall time and ~3 % in CPU time.  For a single-threaded operation that
  neither sleeps nor waits, CPU seconds are the wall seconds a user sees
  on an undisturbed machine, so the closed-loop workloads report their
  end-to-end timings in them.

What a traced run adds is that spans are *kept*: ``{name, start, end,
parent, args}`` records held in memory and written once, at exit, as
Chrome trace-event JSON.  A layer's self time is its span minus the part
its children cover (:meth:`Tracer.self_seconds`).

CPU seconds still move with the second kind of disturbance: a neighbour on
the host that contends for cache and memory slows on-CPU work 1.2-1.7x for
20 s to minutes at a time.  :class:`SpeedProbe` measures that: a fixed
piece of work that uses nothing of the program under test, timed between
the operations, so that each operation's CPU seconds can be divided by
how slow the machine was around it.
"""

from __future__ import annotations

import gc
import json
import statistics
# repro-lint: timing-module -- the harness's single clock: all samples and spans start here
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

__all__ = ["Span", "SpeedProbe", "Tracer", "now", "wall_offset"]


def now() -> float:
    """Monotonic seconds (``perf_counter``); the harness time base."""
    return time.perf_counter()


def wall_offset() -> float:
    """``time.time() - now()``: subtract it from a wall-clock stamp (e.g.
    ``LinkSnapshot.published_at``) to place that stamp on the harness
    time base."""
    return time.time() - time.perf_counter()


class SpeedProbe:
    """How fast the machine is right now, in CPU seconds of fixed work.

    One sample does the three kinds of work the program's layers do, about
    2 : 2 : 1: Python object bookkeeping (tuples hashed into a dict, a
    sort), many numpy calls on small arrays, and a sort + gather over
    arrays that do not fit the L2 cache.  Its inputs are a fixture (seeded,
    the same in every run), it imports nothing of the program under test,
    and it is never inside a timed operation.  ``reference`` is what a
    sample costs on the undisturbed build box (``spec.json:
    probe_reference_s``), so ``slowdown`` reads 1.0 there and 1.4 inside a
    slow episode.

    Measured on the build box over 25 minutes that held two slow episodes,
    windows of eight reps of ``batch_sparse_lsh``: the quartile spread of
    ten consecutive window medians reached 34 % in plain CPU seconds and
    12 % divided by a probe of this kind.
    """

    def __init__(self, reference: float, scale: float = 1.0) -> None:
        """``scale`` shrinks the work and the reference together (the
        smoke test runs at a tenth)."""
        self.reference = reference * scale
        self.samples: List[float] = []
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 40, int(14_000 * scale)).tolist()
        self._small = [rng.integers(0, 50, 200) for _ in range(64)]
        self._rounds = max(1, int(40 * scale))
        self._big = rng.random(int(500_000 * scale))
        self._order = rng.integers(0, self._big.size, self._big.size)
        # Sorted and gathered into buffers held from the start, so that a
        # sample allocates no large block and peak RSS does not depend on
        # where one happened to land.
        self._sorted = np.empty_like(self._big)
        self._gathered = np.empty_like(self._big)
        self._work()  # first-call costs (page faults, lazy imports) stay out

    def _work(self) -> float:
        buckets: Dict[tuple, list] = {}
        for index, key in enumerate(self._keys):
            buckets.setdefault((key & 0xFFFF, index & 7), []).append((key, index))
        ranked = sorted(buckets.items())
        total = float(len(ranked))
        for _ in range(self._rounds):
            for block in self._small:
                total += np.unique(block).size
        np.copyto(self._sorted, self._big)
        self._sorted.sort()
        np.take(self._sorted, self._order, out=self._gathered)
        return total + float(self._gathered.sum())

    def sample(self) -> float:
        """Run the fixed work once; its CPU seconds.  The cyclic collector
        is held off meanwhile: a collection of the caller's heap landing
        inside made samples bimodal (0.066 s / 0.098 s)."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.process_time()
            self._work()
            self.samples.append(time.process_time() - started)
        finally:
            if collecting:
                gc.enable()
        return self.samples[-1]

    def slowdown(self, first: int, last: int) -> float:
        """Median of samples ``first..last`` (indices, inclusive) over the
        reference: the factor the work done between them was slowed by."""
        return statistics.median(self.samples[first : last + 1]) / self.reference


class Span:
    """One timed interval; ``parent`` is the span that was open around it."""

    __slots__ = ("name", "start", "end", "cpu", "parent", "args")

    def __init__(
        self, name: str, parent: Optional["Span"], args: Dict[str, object]
    ) -> None:
        self.name = name
        self.parent = parent
        self.args = args
        self.start = 0.0
        self.end = 0.0
        self.cpu = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Times spans always; keeps them only while ``recording``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.recording = False
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        span = Span(name, self._stack[-1] if self._stack else None, args)
        self._stack.append(span)
        cpu = time.process_time()
        span.start = now()
        try:
            yield span
        finally:
            span.end = now()
            span.cpu = time.process_time() - cpu
            self._stack.pop()
            if self.recording:
                self.spans.append(span)

    def add(self, name: str, start: float, end: float, **args: object) -> None:
        """Record an interval observed from outside (e.g. a relink the
        serving layer ran in its own thread, reconstructed from the
        published snapshot's stamps)."""
        span = Span(name, None, args)
        span.start, span.end = start, end
        self.spans.append(span)

    def self_seconds(self) -> Dict[str, float]:
        """Per span name, total duration minus the children's share."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.wall
            if span.parent is not None:
                parent = span.parent.name
                totals[parent] = totals.get(parent, 0.0) - span.wall
        return totals

    def write_chrome_trace(self, path: Path) -> None:
        """Dump the kept spans as Chrome trace-event JSON (``ph: X``),
        with the per-name self times beside them."""
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.wall * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "workload": self.workload,
                    "parent": span.parent.name if span.parent else None,
                    "cpu_s": span.cpu,
                    **span.args,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"traceEvents": events, "selfSeconds": self.self_seconds()}
        path.write_text(json.dumps(document) + "\n")
