"""Layer attribution from outside the program.

Nothing under ``src/`` knows about the benchmark: layers are measured by
wrapping public entry points in span-recording proxies (pipeline stages,
the batch kernel) and by calling layer functions directly on a workload's
own inputs (probes).  Both are used by traced runs only.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.core import kernels
from repro.core.corpus import HistoryCorpus
from repro.core.history import build_histories
from repro.lsh.index import LshIndex
from repro.pipeline import LinkageConfig, LinkagePipeline
from repro.pipeline.context import LinkageContext

from .clock import Tracer

__all__ = ["KernelTally", "StageProxy", "batch_probes", "traced_stages"]


class StageProxy:
    """A pipeline stage that records a span around the stage it wraps.

    With ``peaks`` given it also records the stage's ``tracemalloc`` peak
    delta — only ever used in a rep whose timings are discarded.
    """

    def __init__(
        self,
        inner,
        tracer: Tracer,
        seen: List[LinkageContext],
        peaks: Optional[Dict[str, float]] = None,
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer
        self._seen = seen
        self._peaks = peaks

    def run(self, context: LinkageContext) -> None:
        self._seen[:] = [context]
        if self._peaks is None:
            with self._tracer.span(f"pipeline.{self.name}"):
                self.inner.run(context)
            return
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        self.inner.run(context)
        _, peak = tracemalloc.get_traced_memory()
        self._peaks[self.name] = (peak - before) / 2**20


def traced_stages(
    config: LinkageConfig,
    tracer: Tracer,
    seen: List[LinkageContext],
    peaks: Optional[Dict[str, float]] = None,
) -> List[StageProxy]:
    """The default stage list, each stage behind a :class:`StageProxy`.
    ``seen`` receives the run's context (the probes' input)."""
    return [
        StageProxy(stage, tracer, seen, peaks)
        for stage in LinkagePipeline.default_stages(config)
    ]


class KernelTally:
    """Seconds and calls spent inside ``kernels.score_pairs_batch``.

    While installed, the public kernel entry point is replaced by a proxy
    that opens a ``kernels.score_pairs_batch`` span (a child of whatever
    scoring span is open) and adds its duration here.  The engine looks
    the function up on the module at call time, so the proxy sees every
    dispatch of the serial path.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.seconds = 0.0
        self.calls = 0

    @contextmanager
    def installed(self) -> Iterator["KernelTally"]:
        original = kernels.score_pairs_batch

        def proxy(*args, **kwargs):
            if not self.tracer.recording:
                return original(*args, **kwargs)
            with self.tracer.span("kernels.score_pairs_batch") as span:
                result = original(*args, **kwargs)
            self.seconds += span.wall
            self.calls += 1
            return result

        kernels.score_pairs_batch = proxy
        try:
            yield self
        finally:
            kernels.score_pairs_batch = original


def batch_probes(
    tracer: Tracer, context: LinkageContext, left, right
) -> Dict[str, float]:
    """Call the prepare / LSH layer functions directly on a batch run's
    own inputs; returns seconds per probe (0 where the layer is unused)."""
    config = context.config
    level = config.similarity.spatial_level
    storage = config.resolved_storage_level()
    with tracer.span("probe.history.build") as history_span:
        histories = [
            build_histories(dataset, context.windowing, storage)
            for dataset in (left, right)
        ]
    with tracer.span("probe.corpus.build") as corpus_span:
        for side in histories:
            HistoryCorpus(side, level).arrays()
    seconds = {
        "history.build_s": history_span.wall,
        "corpus.build_s": corpus_span.wall,
        "lsh.index_build_s": 0.0,
        "lsh.candidate_pairs_s": 0.0,
    }
    if config.resolved_candidates() == "lsh":
        index = LshIndex(
            config.lsh, config.lsh.signature_spec(context.total_windows)
        )
        with tracer.span("probe.lsh.index_build") as build_span:
            index.add_histories(*histories)
        with tracer.span("probe.lsh.candidate_pairs") as pairs_span:
            index.candidate_pairs()
        seconds["lsh.index_build_s"] = build_span.wall
        seconds["lsh.candidate_pairs_s"] = pairs_span.wall
    return seconds

