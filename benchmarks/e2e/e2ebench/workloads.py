"""The five workloads: set-up, a timed region of headline operations,
correctness checks, and the metric values each run reports.

Every workload runs single-process with ``executor="serial"`` set
explicitly, receives only seeded inputs (:mod:`.inputs`), and measures
each layer from outside (:mod:`.layers`).  The amount of timed work is
*planned* from ``--seconds`` (``ops_per_second`` in ``spec.json``,
calibrated on the 2-core build box) rather than cut off by the clock, so
work counters repeat exactly from run to run; a deadline at 1.5x the
budget only bounds the run on a slower machine.

The closed loops report CPU seconds at the build box's undisturbed speed:
between operations a :class:`.clock.SpeedProbe` times a fixed piece of
work, and each operation's CPU seconds are divided by how much slower than
its reference the probe ran just before and just after it.

In a traced run half of the operations are recorded (spans kept, kernel
proxy active, layer rows collected) and the other half take the untraced
path; the ratio of their medians is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import hashlib
import resource
import shutil
import statistics
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.streaming import StreamingLinker
from repro.data import Record, load_csv, save_csv
from repro.eval.metrics import LinkageQuality, precision_recall_f1
from repro.lsh.index import LshConfig
from repro.pipeline import LinkageConfig, LinkagePipeline
from repro.pipeline.stages import STAGE_NAMES
from repro.serve import BackpressureError, LinkageService

from . import inputs
from .clock import SpeedProbe, Tracer, now, wall_offset
from .inputs import DAY, SIDES
from .layers import KernelTally, batch_probes, traced_stages

__all__ = ["WORKLOADS", "Workload"]

Links = Mapping[str, str]
Scores = Mapping[Tuple[str, str], float]

#: The LSH configuration shared by every sparse workload.
LSH = LshConfig(threshold=0.3, step_windows=48, spatial_level=14)
SCORE_TOLERANCE = 1e-9


def p90(values: Sequence[float]) -> float:
    return float(np.percentile(values, 90)) if values else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def directory_bytes(directory: object) -> int:
    return sum(item.stat().st_size for item in Path(directory).iterdir())


def links_digest(links: Links, scores: Scores) -> str:
    """Order-independent digest of a linkage and its scores."""
    rows = sorted(
        (left, right, repr(scores[(left, right)]))
        for left, right in links.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def compare_links(
    what: str, links: Links, scores: Scores, want_links: Links, want: Scores
) -> List[str]:
    """Failures when two linkages differ (scores beyond 1e-9)."""
    if dict(links) != dict(want_links):
        differing = set(links.items()) ^ set(want_links.items())
        return [f"{what}: links differ ({len(differing)} pairs)"]
    worst = max(
        (abs(scores[pair] - want[pair]) for pair in want), default=0.0
    )
    if worst > SCORE_TOLERANCE:
        return [f"{what}: link scores differ by {worst:.3e}"]
    return []


class Workload:
    """Base class; subclasses fill in ``setup``, ``measure``, ``check``."""

    name = ""

    def __init__(
        self,
        params: Mapping[str, object],
        *,
        seed: int,
        scale: float,
        seconds: float,
        trace: bool,
        workdir: Path,
        probe_reference: float,
        oracle: bool = False,
        corrupt: bool = False,
    ) -> None:
        self.params = params
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.oracle = oracle
        self.corrupt = corrupt
        self.tracer = Tracer(self.name)
        self.tally = KernelTally(self.tracer)
        self.speed = SpeedProbe(probe_reference, min(1.0, scale))
        #: Headline-operation seconds by operation index as measured, the
        #: index of the probe sample taken before each, and which of them
        #: a traced run recorded.
        self.ops: Dict[int, float] = {}
        self.op_probe: Dict[int, int] = {}
        self.traced_ops: set = set()
        self.records = 0  # input records consumed by the timed region
        #: Wall and CPU seconds of the timed region's operations.
        self.busy_wall = 0.0
        self.busy_cpu = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self.rows: List[Dict[str, float]] = []  # layer timings, traced ops
        self.layer: Dict[str, float] = {}  # layer counters and probes
        self.truth: Dict[str, str] = {}
        self.links: Links = {}
        self.scores: Scores = {}
        self.setups = 0
        self.peak_rss_mb = 0.0

    # -- sizing ----------------------------------------------------------
    def scaled(self, key: str) -> int:
        return max(2, int(round(float(self.params[key]) * self.scale)))

    def planned_ops(self) -> int:
        rate = float(self.params["ops_per_second"])
        return max(int(self.params["min_ops"]), int(round(self.seconds * rate)))

    def config(self, **changes: object) -> LinkageConfig:
        """The workload's linkage configuration (always serial)."""
        return LinkageConfig(executor="serial", **changes)

    def oracle_config(self, config: LinkageConfig) -> LinkageConfig:
        return config.without(
            similarity=config.similarity.without(backend="python")
        )

    # -- operation bookkeeping ------------------------------------------
    def begin_op(self, index: int) -> bool:
        """Route operation ``index`` down the traced or the plain path.

        A traced run records one operation of every consecutive pair,
        chosen by a seeded coin: neighbours do the most similar work, and
        a fixed stride would line up with periodic work (every 4th churn
        round rebuilds the LSH layout and saves)."""
        if self.trace and not self.traced_ops:
            coins = np.random.default_rng(self.seed).integers(
                0, 2, self.planned_ops() // 2 + 1
            )
            self.traced_ops = {2 * k + int(c) for k, c in enumerate(coins)}
        self.tracer.recording = self.trace and index in self.traced_ops
        self.op_index = index
        return self.tracer.recording

    def end_op(self, seconds: float) -> None:
        self.ops[self.op_index] = seconds
        self.op_probe[self.op_index] = len(self.speed.samples) - 1
        self.tracer.recording = False

    @contextmanager
    def collector_between_ops(self) -> Iterator[None]:
        """Keep the cyclic collector out of the timed operations.

        A full collection over this heap (the linker's state plus the
        harness's own record lists) costs about as much as a small relink
        and lands on whichever operation crosses the allocation threshold:
        round times came out bimodal and the median flipped between the
        two modes from seed to seed.  As ``timeit`` does, the closed loops
        therefore run their operations with the collector off; it runs
        between operations instead (``between_ops``), over the objects
        made since set-up only (``gc.freeze``).  A traced run reports
        what one full collection costs as ``gc.full_collect_s``.
        """
        gc.collect()
        gc.freeze()
        gc.disable()
        self.speed.sample()  # the sample before the first operation
        try:
            yield
        finally:
            gc.enable()
            gc.unfreeze()
        if self.trace:
            with self.tracer.span("probe.gc.full_collect") as probe:
                gc.collect()
            self.layer["gc.full_collect_s"] = probe.wall

    def between_ops(self, done: int, planned: int) -> None:
        """After operation ``done`` of ``planned``: collect, and about
        every 0.7 s of operations (and after the last) sample the probe."""
        gc.collect()
        every = max(1, round(0.7 * float(self.params["ops_per_second"])))
        if done % every == 0 or done == planned:
            self.speed.sample()

    def count_busy(self, span) -> None:
        """Add one closed-loop operation's span to the busy totals."""
        self.busy_cpu += span.cpu
        self.busy_wall += span.wall

    def over_deadline(self, started: float, done: int) -> bool:
        return (
            done >= int(self.params["min_ops"])
            and now() - started > 1.5 * self.seconds
        )

    def fresh_dir(self, label: str) -> Path:
        path = self.workdir / f"{label}-{self.setups}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def sample_rss(self) -> None:
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    # -- the three phases -------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def checked_links(self) -> Links:
        """The final links as the checks see them (``--corrupt-links``
        drops one, which every check must then catch)."""
        links = dict(self.links)
        if self.corrupt and links:
            del links[min(links)]
        return links

    def f1(self) -> float:
        return precision_recall_f1(self.links, self.truth).f1

    def check_f1_floor(self) -> None:
        floor = float(self.params["f1_floor"])
        if not self.oracle and self.scale >= 1.0 and self.f1() < floor:
            self.failures.append(f"f1 {self.f1():.4f} below floor {floor}")

    # -- metric values ----------------------------------------------------
    def at_reference_speed(self) -> Dict[int, float]:
        """Each operation's seconds divided by the slowdown the probe saw
        in the sample before it and the first sample after it."""
        last = len(self.speed.samples) - 1
        values = {}
        for index, seconds in self.ops.items():
            before = self.op_probe[index]
            values[index] = seconds / self.speed.slowdown(
                before, min(before + 1, last)
            )
        return values

    def latency_samples(self) -> List[float]:
        return list(self.at_reference_speed().values())

    def measured_samples(self) -> List[float]:
        """The same operations in plain CPU seconds."""
        return list(self.ops.values())

    def overhead_ratio(self) -> float:
        """Median, over consecutive pairs of operations, of traced seconds
        over untraced seconds (1 when tracing is passive: serve)."""
        ops = self.at_reference_speed()
        ratios = [
            ops[k] / ops[k ^ 1]
            for k in self.traced_ops
            if k in ops and k ^ 1 in ops
        ]
        return median(ratios) if ratios else 1.0

    def end_to_end_values(self, setup_seconds: float) -> Dict[str, float]:
        return {
            "setup_s": setup_seconds,
            "latency_p50_s": median(self.latency_samples()),
            "peak_rss_mb": self.peak_rss_mb,
            "f1": self.f1(),
        }

    def busy_seconds(self) -> float:
        """The throughput base: CPU seconds on a closed loop (see
        :mod:`.clock`)."""
        return self.busy_cpu

    def busy_operations(self) -> int:
        """Operations the busy seconds are spread over (the ``*_share``
        base)."""
        return max(1, len(self.latency_samples()))

    def save_seconds_per_op(self, values: Mapping[str, float]) -> float:
        return 0.0

    def per_layer_values(self, names: Sequence[str]) -> Dict[str, float]:
        """Every per-layer metric by name; 0 where a layer is not used.

        Timings are medians over the traced operations (``rows``);
        ``layer`` holds counters and probe results; the rest is derived
        here so all workloads derive it the same way.
        """
        values = dict.fromkeys(names, 0.0)
        for key in {key for row in self.rows for key in row} & set(names):
            values[key] = median([row[key] for row in self.rows if key in row])
        values.update(self.layer)
        values["latency.p90_s"] = p90(self.latency_samples())
        values["latency.measured_p50_s"] = median(self.measured_samples())
        values["clock.slowdown_ratio"] = (
            median(self.speed.samples) / self.speed.reference
        )
        if self.busy_seconds():
            values["throughput.records_per_s"] = (
                self.records / self.busy_seconds()
            )
        if values["pipeline.scoring_s"]:
            values["scoring.orchestration_s"] = (
                values["pipeline.scoring_s"]
                - values["kernels.score_pairs_batch_s"]
            )
            values["scoring.pairs_per_s"] = (
                values["scoring.pairs_scored"]
                / self.counter_ops()
                / values["pipeline.scoring_s"]
            )
        lookups = values["score_cache.hits"] + values["score_cache.misses"]
        if lookups:
            values["score_cache.hit_ratio"] = values["score_cache.hits"] / lookups
        if self.busy_cpu:
            values["clock.wall_per_cpu_ratio"] = self.busy_wall / self.busy_cpu
        op_busy = self.busy_wall / self.busy_operations()
        if op_busy:
            for name in names:
                if name.endswith("_share"):
                    values[name] = values[name[: -len("share")] + "s"] / op_busy
            values["store.save_share"] = (
                self.save_seconds_per_op(values) / op_busy
            )
        values["trace.overhead_ratio"] = self.overhead_ratio()
        return {name: float(values[name]) for name in names}

    def counter_ops(self) -> int:
        """Operations the ``layer`` counters were summed over."""
        return 1


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------
class BatchWorkload(Workload):
    """``load_csv`` x2 + ``LinkagePipeline.run``, repeated."""

    def make_pair(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.setups += 1
        pair = self.make_pair()
        self.truth = dict(pair.ground_truth)
        directory = self.fresh_dir("csv")
        self.paths = [directory / "left.csv", directory / "right.csv"]
        save_csv(pair.left, self.paths[0])
        save_csv(pair.right, self.paths[1])
        self.sides = (pair.left.num_entities, pair.right.num_entities)
        self.rep()

    def rep(self, index: int = 0, stages=None):
        """One repetition: ``load_csv`` x2 + ``LinkagePipeline.run`` (over
        ``stages`` when given); returns its spans and results."""
        with self.tracer.span("rep", rep=index) as op:
            with self.tracer.span("data.load_csv") as load:
                datasets = [load_csv(path) for path in self.paths]
            pipeline = LinkagePipeline(self.linkage_config, stages)
            report = pipeline.run(*datasets)
        return op, load, report, datasets

    def timed_rep(self, index: int):
        kernel_before = self.tally.seconds
        if self.begin_op(index):
            stages = traced_stages(self.linkage_config, self.tracer, [])
            op, load, report, datasets = self.rep(index, stages)
            row = {f"pipeline.{k}_s": v for k, v in report.timings.items()}
            row["data.load_csv_s"] = load.wall
            row["kernels.score_pairs_batch_s"] = self.tally.seconds - kernel_before
            self.rows.append(row)
        else:
            op, load, report, datasets = self.rep(index)
        self.end_op(op.cpu)
        self.count_busy(op)
        self.records += sum(dataset.num_records for dataset in datasets)
        return report, datasets

    def measure(self) -> None:
        digests = set()
        started = now()
        planned = self.planned_ops()
        with self.tally.installed(), self.collector_between_ops():
            for index in range(planned):
                if self.over_deadline(started, index):
                    break
                self.attempted += 1
                report, datasets = self.timed_rep(index)
                digests.add(links_digest(report.links, report.link_scores))
                self.between_ops(index + 1, planned)
        self.sample_rss()
        self.attempted += 1
        if len(digests) != 1:
            self.failures.append(f"{len(digests)} distinct link digests")
        self.links, self.scores = report.links, report.link_scores
        self.datasets = datasets
        if self.trace:
            self.collect_layers(report, datasets)

    def collect_layers(self, report, datasets) -> None:
        stats = report.stats
        lsh = report.extras.get("lsh_stats")
        candidates = report.candidate_pairs
        self.layer.update(
            {
                "data.records_in": sum(d.num_records for d in datasets),
                "lsh.candidate_pairs": candidates if lsh else 0,
                "lsh.pair_reduction_ratio": (
                    candidates / (self.sides[0] * self.sides[1]) if lsh else 0.0
                ),
                "lsh.buckets_used": lsh.buckets_used if lsh else 0,
                "scoring.pairs_scored": stats.pairs_scored,
                "scoring.bin_comparisons": stats.bin_comparisons,
                "scoring.common_windows": stats.common_windows,
                "scoring.alibi_entity_pairs": stats.alibi_entity_pairs,
                "scoring.positive_edge_ratio": len(report.edges) / candidates,
                "matching.edges_in": len(report.edges),
                "matching.matched_edges": len(report.matched_edges),
                "threshold.links": len(report.links),
            }
        )
        # One traced rep outside the timed region feeds the probes and,
        # under tracemalloc, the per-stage peaks; its timings are dropped.
        peaks: Dict[str, float] = {}
        seen: List = []
        tracemalloc.start()
        try:
            self.rep(
                stages=traced_stages(
                    self.linkage_config, self.tracer, seen, peaks
                )
            )
        finally:
            tracemalloc.stop()
        for stage in STAGE_NAMES:
            self.layer[f"pipeline.{stage}_peak_mb"] = peaks.get(stage, 0.0)
        self.tracer.recording = True
        self.layer.update(batch_probes(self.tracer, seen[0], *datasets))
        self.tracer.recording = False
        corpus = seen[0].left_corpus.memory_stats()
        other = seen[0].right_corpus.memory_stats()
        self.layer["corpus.total_bins"] = (
            corpus["total_bins"] + other["total_bins"]
        )
        self.layer["corpus.flat_live_ratio"] = (
            corpus["flat_live"] + other["flat_live"]
        ) / (corpus["flat_entries"] + other["flat_entries"])

    def check(self) -> None:
        self.attempted += 1
        self.check_f1_floor()
        links = self.checked_links()
        self.failures += compare_links(
            "final rep", links, self.scores, self.links, self.scores
        )
        if self.oracle:
            want = LinkagePipeline(
                self.oracle_config(self.linkage_config)
            ).run(*self.datasets)
            self.failures += compare_links(
                "python oracle", links, self.scores,
                want.links, want.link_scores,
            )


class BatchSparseLsh(BatchWorkload):
    name = "batch_sparse_lsh"

    def make_pair(self):
        self.linkage_config = self.config(lsh=LSH)
        return inputs.sm_pair(self.scaled("num_users"), self.seed)


class BatchDenseBrute(BatchWorkload):
    name = "batch_dense_brute"

    def make_pair(self):
        self.linkage_config = self.config(candidates="brute")
        return inputs.cab_pair(self.scaled("num_taxis"), self.seed)


# ---------------------------------------------------------------------------
# streaming
# ---------------------------------------------------------------------------
class StreamWorkload(Workload):
    """Rounds of ``observe`` + ``relink()`` on a resident linker."""

    storage = "memory"
    save_every = 0  # rounds between timed save() calls; 0 = never

    def new_linker(self, config: LinkageConfig, label: str) -> StreamingLinker:
        if self.storage == "memory":
            return StreamingLinker(self.origin, config)
        return StreamingLinker(
            self.origin, config, **self.store_options(label)
        )

    def store_options(self, label: str) -> Dict[str, object]:
        return {
            "storage": "disk",
            "store_dir": self.fresh_dir(label),
            "store_chunk_rows": int(self.params["store_chunk_rows"]),
            "store_cache_chunks": int(self.params["store_cache_chunks"]),
        }

    def start(self, pair, config: LinkageConfig) -> None:
        """Common set-up tail: fresh linker, survivor mirror, state dir."""
        self.linkage_config = config
        self.truth = dict(pair.ground_truth)
        self.origin = inputs.time_span(pair)[0]
        self.linker = self.new_linker(config, "store")
        self.state_dir = self.fresh_dir("state")
        #: Records of every entity the linker still holds, kept by the
        #: harness from what it delivered (the cold reference's input).
        self.resident: Dict[str, Dict[str, List[Record]]] = {
            side: {} for side in SIDES
        }
        self.latest: Dict[str, Dict[str, float]] = {side: {} for side in SIDES}
        self.saves: List[float] = []
        self.restores: List[float] = []
        self.save_bytes = 0
        self.observe_busy = 0.0

    def observe(self, batches: Mapping[str, List[Record]]) -> int:
        return sum(self.linker.observe(side, batches[side]) for side in SIDES)

    def remember(self, batches: Mapping[str, List[Record]]) -> None:
        """Harness bookkeeping (untimed): what was delivered, and the
        mirror of which entities the retention policy has kept."""
        for side in SIDES:
            resident, latest = self.resident[side], self.latest[side]
            for record in batches[side]:
                entity = record.entity_id
                resident.setdefault(entity, []).append(record)
                latest[entity] = max(latest.get(entity, 0.0), record.timestamp)
        if self.linkage_config.retention != "sliding_window":
            return
        index_of = self.linker.windowing.index_of
        horizon = (
            index_of(self.linker.watermark)
            - self.linkage_config.retention_window
        )
        for side in SIDES:
            latest = self.latest[side]
            for entity in [e for e, t in latest.items() if index_of(t) < horizon]:
                del latest[entity]
                del self.resident[side][entity]

    def warm(self, batches: Mapping[str, List[Record]]) -> None:
        self.observe(batches)
        self.linker.relink()
        self.remember(batches)

    def round(self, index: int, batches: Mapping[str, List[Record]]) -> None:
        traced = self.begin_op(index)
        kernel_before = self.tally.seconds
        with self.tracer.span("round", round=index) as whole:
            with self.tracer.span("data.observe") as observe:
                delivered = self.observe(batches)
            with self.tracer.span("streaming.relink") as op:
                report = self.linker.relink()
            if self.save_every and (index + 1) % self.save_every == 0:
                self.attempted += 1
                with self.tracer.span("store.save") as save:
                    promoted = self.linker.save(self.state_dir)
                self.saves.append(save.wall)
                self.save_bytes = directory_bytes(promoted)
        self.remember(batches)
        self.records += delivered
        self.count_busy(whole)
        self.observe_busy += observe.wall
        stats = self.linker.last_relink
        timings = report.timings
        for key, value in (
            ("scoring.pairs_scored", report.stats.pairs_scored),
            ("scoring.bin_comparisons", report.stats.bin_comparisons),
            ("scoring.common_windows", report.stats.common_windows),
            ("scoring.alibi_entity_pairs", report.stats.alibi_entity_pairs),
            ("score_cache.hits", stats.cache_hits),
            ("score_cache.misses", stats.pairs_rescored),
            ("score_cache.idf_invalidated", stats.idf_invalidated),
            ("streaming.dirty_entities", stats.dirty_left + stats.dirty_right),
            ("retention.evicted", stats.evicted_left + stats.evicted_right),
            ("lsh.rebuilds", int(stats.lsh_rebuilt)),
            ("data.records_in", delivered),
        ):
            self.layer[key] = self.layer.get(key, 0) + value
        if traced:
            row = {f"pipeline.{k}_s": v for k, v in timings.items()}
            row.update(
                {
                    "streaming.relink_s": op.wall,
                    "data.observe_s": observe.wall,
                    "corpus.refresh_s": timings.get("prepare", 0.0),
                    "streaming.unattributed_s": op.wall
                    - sum(timings.values()),
                    "kernels.score_pairs_batch_s": self.tally.seconds
                    - kernel_before,
                    "streaming.candidate_pairs": stats.candidate_pairs,
                }
            )
            self.rows.append(row)
        self.end_op(op.cpu)
        self.last_report = report

    def run_rounds(self, rounds: Sequence[Mapping[str, List[Record]]]) -> None:
        started = now()
        planned = min(len(rounds), self.planned_ops())
        with self.tally.installed(), self.collector_between_ops():
            for index in range(planned):
                if self.over_deadline(started, index):
                    break
                self.attempted += 1
                self.round(index, rounds[index])
                self.between_ops(index + 1, planned)
        self.sample_rss()
        self.links = self.last_report.links
        self.scores = self.last_report.link_scores
        if self.trace:
            self.collect_layers()

    def collect_layers(self) -> None:
        report = self.last_report
        memory = self.linker.memory_stats()
        self.layer.update(
            {
                "corpus.total_bins": memory["left_total_bins"]
                + memory["right_total_bins"],
                "corpus.flat_live_ratio": (
                    memory["left_flat_live"] + memory["right_flat_live"]
                )
                / (memory["left_flat_entries"] + memory["right_flat_entries"]),
                "score_cache.rows": memory["score_cache_rows"],
                "store.resident_bytes": memory["left_flat_resident_bytes"]
                + memory["right_flat_resident_bytes"],
                "scoring.positive_edge_ratio": len(report.edges)
                / report.candidate_pairs,
                "matching.edges_in": len(report.edges),
                "matching.matched_edges": len(report.matched_edges),
                "threshold.links": len(report.links),
            }
        )
        self.tracer.recording = True
        with self.tracer.span("probe.score_cache.checkpoint") as probe:
            self.linker.score_cache.checkpoint()
        self.tracer.recording = False
        held = sum(
            len(records)
            for resident in self.resident.values()
            for records in resident.values()
        )
        self.layer.update(
            {
                "score_cache.checkpoint_s": probe.wall,
                "store.save_s": median(self.saves),
                "store.save_bytes": self.save_bytes,
                "store.bytes_per_record": self.save_bytes / held,
                "data.observe_records_per_s": self.records / self.observe_busy,
            }
        )

    def counter_ops(self) -> int:
        return self.busy_operations()

    def save_seconds_per_op(self, values: Mapping[str, float]) -> float:
        return sum(self.saves) / self.busy_operations()

    def restore(self, label: str) -> StreamingLinker:
        options = (
            {} if self.storage == "memory" else self.store_options(label)
        )
        return StreamingLinker.restore(self.state_dir, strict=True, **options)

    def cold_reference(self, config: LinkageConfig, label: str):
        cold = self.new_linker(config, label)
        for side in SIDES:
            cold.observe(
                side,
                [r for records in self.resident[side].values() for r in records],
            )
        return cold.relink()

    def check(self) -> None:
        self.attempted += 3
        self.check_f1_floor()
        links = self.checked_links()
        held = (self.linker.num_left_entities, self.linker.num_right_entities)
        mirrored = tuple(len(self.resident[side]) for side in SIDES)
        if held != mirrored:
            self.failures.append(
                f"linker holds {held} entities, the harness expects {mirrored}"
            )
        references = [("cold relink", self.linkage_config)]
        if self.oracle:
            references.append(
                ("python oracle", self.oracle_config(self.linkage_config))
            )
        for what, config in references:
            want = self.cold_reference(config, "cold")
            self.failures += compare_links(
                what, links, self.scores, want.links, want.link_scores
            )
        self.linker.save(self.state_dir)
        restored = self.restore("check").relink()
        live = self.linker.relink()
        self.failures += compare_links(
            "restored relink", restored.links, restored.link_scores,
            live.links, live.link_scores,
        )
        self.failures += compare_links(
            "zero-delta relink", links, self.scores,
            live.links, live.link_scores,
        )


class StreamTrickle(StreamWorkload):
    """Small deltas on a large resident corpus, in memory."""

    name = "stream_trickle"

    def setup(self) -> None:
        self.setups += 1
        pair = inputs.sm_pair(self.scaled("num_users"), self.seed)
        self.start(pair, self.config(lsh=LSH))
        low, high = inputs.time_span(pair)
        cut = low + float(self.params["preload_fraction"]) * (high - low)
        early, late = inputs.split_at(pair, cut)
        self.rounds = inputs.entity_batches(
            late, int(self.params["entities_per_round"])
        )
        self.warm(early)
        # The first delta round rebuilds the LSH layout; keep it and one
        # more out of the timed region.
        self.warm(self.rounds.pop(0))
        self.warm(self.rounds.pop(0))

    def measure(self) -> None:
        self.run_rounds(self.rounds)


class StreamChurnDisk(StreamWorkload):
    """Arrivals, evictions, IDF drift, spills and snapshots, on disk."""

    name = "stream_churn_disk"
    storage = "disk"

    def setup(self) -> None:
        self.setups += 1
        params = self.params
        days = float(params["days"])
        pair = inputs.churn_pair(
            self.scaled("num_users"), self.seed, days,
            float(params["active_days"]),
        )
        self.start(
            pair,
            self.config(
                lsh=LSH,
                retention="sliding_window",
                retention_window=int(params["retention_window"]),
            ),
        )
        self.save_every = int(params["save_every"])
        self.quality: List[LinkageQuality] = []
        streams = inputs.sorted_streams(pair)
        step = float(params["round_hours"]) * 3600.0
        warm_until = self.origin + float(params["warm_days"]) * DAY
        edges = np.arange(warm_until, self.origin + days * DAY + step, step)
        stamps = {
            side: np.array([r.timestamp for r in streams[side]])
            for side in SIDES
        }
        cuts = {side: np.searchsorted(stamps[side], edges) for side in SIDES}
        self.warm(
            {side: streams[side][: cuts[side][0]] for side in SIDES}
        )
        self.rounds = [
            {
                side: streams[side][cuts[side][k] : cuts[side][k + 1]]
                for side in SIDES
            }
            for k in range(len(edges) - 1)
        ]
        self.warm(self.rounds.pop(0))
        self.warm(self.rounds.pop(0))

    def measure(self) -> None:
        self.run_rounds(self.rounds)
        if not self.saves:
            self.linker.save(self.state_dir)
        self.tracer.recording = self.trace
        for index in range(int(self.params["restores"])):
            self.attempted += 1
            with self.tracer.span("store.restore") as span:
                self.restore(f"restore{index}")
            self.restores.append(span.wall)
        self.tracer.recording = False
        self.layer["store.restore_s"] = median(self.restores)

    def round(self, index: int, batches: Mapping[str, List[Record]]) -> None:
        super().round(index, batches)
        held = self.resident
        truth = {
            left: right
            for left, right in self.truth.items()
            if left in held["left"] and right in held["right"]
        }
        self.quality.append(precision_recall_f1(self.last_report.links, truth))

    def f1(self) -> float:
        """Over the links of every timed round, each against the true
        pairs resident at that round: the final round alone holds ~200
        pairs and its F1 moved 7 % from seed to seed."""
        rounds = self.quality
        return LinkageQuality(
            sum(quality.true_positives for quality in rounds),
            sum(quality.false_positives for quality in rounds),
            sum(quality.false_negatives for quality in rounds),
        ).f1


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------
class ServeOpenLoop(Workload):
    """Arrival-driven: queue -> debounce -> relink -> publish -> checkpoint."""

    name = "serve_open_loop"

    def setup(self) -> None:
        self.setups += 1
        pair = inputs.sm_pair(self.scaled("num_users"), self.seed)
        self.truth = dict(pair.ground_truth)
        self.linkage_config = self.config(lsh=LSH)
        low, high = inputs.time_span(pair)
        self.origin = low
        cut = low + float(self.params["preload_fraction"]) * (high - low)
        self.early, late = inputs.split_at(pair, cut)
        events = [
            (side, records)
            for side in SIDES
            for _, records in sorted(late[side].items())
        ]
        order = np.random.default_rng(self.seed).permutation(len(events))
        self.events = [events[int(k)] for k in order]
        self.query_entities = pair.left.entities
        linker = StreamingLinker(self.origin, self.linkage_config)
        for side in SIDES:
            linker.observe(side, self.early[side])
        linker.relink()
        self.state_dir = self.fresh_dir("state")
        linker.save(self.state_dir)
        # Restores on construction, checkpoints after every publish.
        self.service = LinkageService(
            self.origin, self.linkage_config, state_dir=self.state_dir
        )

    def measure(self) -> None:
        self.speed.sample()
        with self.tally.installed():
            self.tracer.recording = self.trace
            with self.tracer.span("open_loop") as loop:
                asyncio.run(self.open_loop())
            self.tracer.recording = False
        self.speed.sample()
        self.busy_cpu = loop.cpu
        self.sample_rss()
        if self.trace:
            self.collect_layers()

    async def open_loop(self) -> None:
        service = self.service
        rate = float(self.params["events_per_second"])
        query_rate = float(self.params["queries_per_second"])
        poll = float(self.params["watch_poll_seconds"])
        events = self.events[: max(1, int(rate * self.seconds))]
        self.sent: List[Tuple[float, float]] = []  # (scheduled, accepted)
        self.sightings: List[Tuple[object, float]] = []  # (snapshot, seen)
        self.accepted: List[Tuple[str, Sequence[Record]]] = []
        self.late_max = 0.0
        self.queries = 0
        done = asyncio.Event()
        await service.start()
        start = now() + 0.05
        self.to_harness_time = wall_offset()

        async def generator() -> None:
            for index, (side, records) in enumerate(events):
                due = start + index / rate
                if due > now():
                    await asyncio.sleep(due - now())
                self.late_max = max(self.late_max, now() - due)
                self.attempted += 1
                try:
                    await service.submit(side, records)
                except BackpressureError as error:
                    self.failures.append(f"submit refused: {error}")
                    continue
                self.sent.append((due, now()))
                self.accepted.append((side, records))

        async def reader() -> None:
            entities = self.query_entities
            while not done.is_set():
                due = start + self.queries / query_rate
                if due > now():
                    await asyncio.sleep(due - now())
                self.attempted += 1
                await service.links_for(entities[self.queries % len(entities)])
                self.queries += 1

        async def watcher() -> None:
            version = service.snapshot().version
            while not done.is_set():
                current = service.snapshot()
                if current.version != version:
                    version = current.version
                    self.sightings.append((current, now()))
                await asyncio.sleep(poll)

        tasks = [asyncio.create_task(reader()), asyncio.create_task(watcher())]
        try:
            await generator()
            final = await service.flush()
            while final.version and (
                not self.sightings
                or self.sightings[-1][0].version < final.version
            ):
                await asyncio.sleep(poll)
        finally:
            done.set()
            await asyncio.gather(*tasks)
            self.serve_metrics = service.metrics()
            await service.stop()
        self.final = final
        self.links, self.scores = final.links, final.link_scores
        self.lags = self.publish_lags()

    def publish_lags(self) -> List[float]:
        """Per accepted event: scheduled send instant -> the instant the
        watcher saw the first snapshot whose relink started (publish stamp
        minus ``relink_seconds``) at or after the event was accepted."""
        starts = [
            snapshot.published_at - self.to_harness_time - snapshot.relink_seconds
            for snapshot, _ in self.sightings
        ]
        lags = []
        for scheduled, accepted in self.sent:
            k = bisect.bisect_left(starts, accepted)
            if k == len(starts):
                self.failures.append("an accepted event was never published")
                continue
            lags.append(self.sightings[k][1] - scheduled)
        self.records = sum(len(records) for _, records in self.accepted)
        if self.sent and self.sightings:
            self.busy_wall = self.sightings[-1][1] - self.sent[0][0]
        for k, (snapshot, _) in enumerate(self.sightings):
            publish = snapshot.published_at - self.to_harness_time
            self.tracer.add(
                "serve.relink", starts[k], publish, version=snapshot.version
            )
        return lags

    def latency_samples(self) -> List[float]:
        """Wall seconds as measured: waiting for a batch to fill is most
        of a publish lag, and no probe says how that scales."""
        return self.lags

    measured_samples = latency_samples

    def busy_seconds(self) -> float:
        """An open loop runs on the wall clock."""
        return self.busy_wall

    def busy_operations(self) -> int:
        """One operation of the serving worker is a publish cycle."""
        return max(1, len(self.sightings))

    def save_seconds_per_op(self, values: Mapping[str, float]) -> float:
        return values["store.save_s"]

    def collect_layers(self) -> None:
        metrics = self.serve_metrics
        snapshots = [snapshot for snapshot, _ in self.sightings]
        publishes = [snapshot.published_at for snapshot in snapshots]
        relinks = [snapshot.relink for snapshot in snapshots]
        cycle = median(np.diff(publishes).tolist())  # 0 with one publish
        cache = self.service.linker.score_cache
        memory = self.service.linker.memory_stats()
        probe_dir = self.fresh_dir("probe")
        saves = []
        for _ in range(3):
            with self.tracer.span("probe.store.save") as save:
                promoted = self.service.linker.save(probe_dir)
            saves.append(save.wall)
        with self.tracer.span("probe.score_cache.checkpoint") as probe:
            cache.checkpoint()
        self.layer.update(
            {
                "data.records_in": metrics["records_in"],
                "score_cache.hits": sum(r.cache_hits for r in relinks),
                "score_cache.misses": sum(r.pairs_rescored for r in relinks),
                "score_cache.idf_invalidated": sum(
                    r.idf_invalidated for r in relinks
                ),
                "score_cache.rows": memory["score_cache_rows"],
                "score_cache.checkpoint_s": probe.wall,
                "streaming.dirty_entities": sum(
                    r.dirty_left + r.dirty_right for r in relinks
                ),
                "streaming.candidate_pairs": median(
                    [r.candidate_pairs for r in relinks]
                ),
                "streaming.relink_s": metrics["relink_p50_s"],
                "lsh.rebuilds": sum(int(r.lsh_rebuilt) for r in relinks),
                "corpus.total_bins": memory["left_total_bins"]
                + memory["right_total_bins"],
                "corpus.flat_live_ratio": (
                    memory["left_flat_live"] + memory["right_flat_live"]
                )
                / (memory["left_flat_entries"] + memory["right_flat_entries"]),
                "threshold.links": len(self.links),
                "kernels.score_pairs_batch_s": self.tally.seconds
                / max(1, len(relinks)),
                "store.save_s": median(saves),
                "store.save_bytes": directory_bytes(promoted),
                "store.bytes_per_record": directory_bytes(promoted)
                / (sum(len(r) for r in self.early.values()) + self.records),
                "store.resident_bytes": memory["left_flat_resident_bytes"]
                + memory["right_flat_resident_bytes"],
                "serve.relinks": metrics["relinks"],
                "serve.relink_p50_s": metrics["relink_p50_s"],
                "serve.cycle_p50_s": cycle,
                "serve.worker_utilization": (
                    (metrics["relink_p50_s"] + median(saves)) / cycle
                    if cycle
                    else 0.0
                ),
                "serve.records_per_relink": self.records / max(1, len(relinks)),
                "serve.queue_peak": metrics["queue_peak"],
                "serve.blocked": metrics["blocked"],
                "serve.rejected": metrics["rejected"],
                "serve.relink_failures": metrics["relink_failures"],
                "serve.query_p50_us": metrics["query_p50_ms"] * 1e3,
                "serve.query_p99_us": metrics["query_p99_ms"] * 1e3,
                "serve.generator_late_max_s": self.late_max,
            }
        )

    def check(self) -> None:
        self.attempted += 2
        self.check_f1_floor()
        metrics = self.serve_metrics
        for counter in ("rejected", "blocked", "relink_failures"):
            if metrics[counter]:
                self.failures.append(f"serve {counter} = {metrics[counter]}")
        if self.service.last_error is not None:
            self.failures.append(f"relink error: {self.service.last_error!r}")
        links = self.checked_links()
        references = [("offline replay", self.linkage_config)]
        if self.oracle:
            references.append(
                ("python oracle", self.oracle_config(self.linkage_config))
            )
        for what, config in references:
            offline = StreamingLinker(self.origin, config)
            for side in SIDES:
                offline.observe(side, self.early[side])
            for side, records in self.accepted:
                offline.observe(side, list(records))
            want = offline.relink()
            self.failures += compare_links(
                what, links, self.scores, want.links, want.link_scores
            )


WORKLOADS = {
    cls.name: cls
    for cls in (
        BatchSparseLsh,
        BatchDenseBrute,
        StreamTrickle,
        StreamChurnDisk,
        ServeOpenLoop,
    )
}


def run_workload(workload: Workload, setup_repeats: int) -> float:
    """Drive one workload through its phases; returns the median set-up
    time.  Set-up runs ``setup_repeats`` times from scratch (same seed,
    same inputs) and the last one's state feeds the timed region.  Like
    the operations, the set-ups' CPU seconds are divided by the slowdown
    the probe saw around them (one sample before, one after each)."""
    setup_seconds = []
    speed = workload.speed
    speed.sample()
    for _ in range(setup_repeats):
        with workload.tracer.span("setup") as span:
            workload.setup()
        setup_seconds.append(span.cpu)
        speed.sample()
    slowdown = speed.slowdown(0, setup_repeats)
    workload.measure()
    workload.check()
    return median(setup_seconds) / slowdown
