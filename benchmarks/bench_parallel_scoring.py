"""Parallel scoring-stage benchmark: the executor speedup curve.

Runs the scoring stage of the dense cab workload under every execution
backend (:mod:`repro.exec`) at 1/2/4/8 workers, asserting **bit-identical
edges** against the serial oracle on every configuration, and records the
wall-clock curve machine-readably in
``benchmarks/results/BENCH_parallel_scoring.json``.

The headline entry is ``speedup`` — the ``"process"`` backend at 4
workers against ``"serial"`` (the acceptance gate tracks >= 2x).  The
floor is only enforceable on parallel hardware: when the process has
fewer than ``PARALLEL_CPUS_NEEDED`` usable CPUs (``cpus`` in the JSON),
the curve is still measured and recorded but the floor check is skipped —
a single-core container can validate *parity*, not *parallelism*.

Run stand-alone (the CI job does, on multi-core runners):

    PYTHONPATH=src python benchmarks/bench_parallel_scoring.py --smoke

or through pytest:

    PYTHONPATH=src python -m pytest -q benchmarks/bench_parallel_scoring.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench_util import write_bench_json

from repro.data import sample_linkage_pair
from repro.data.synth import default_cab_world
from repro.exec import Executor, create_executor
from repro.pipeline import LinkageConfig, PrepareStage, ScoringStage, candidate_stages
from repro.pipeline.context import LinkageContext

#: Wall-clock floor for the headline (process backend, 4 workers); the
#: true curve is what the JSON records — like the other bench floors this
#: exists to catch gross regressions, not to measure.
DEFAULT_SPEEDUP_FLOOR = 2.0

#: Enforcing a parallel floor needs parallel hardware.
PARALLEL_CPUS_NEEDED = 2

#: Shard granularity for this bench: small enough that 8 workers see
#: dozens of shards on the workload below (shard boundaries are identical
#: across backends, so parity is unaffected).
SHARD_SIZE = 512

WORKER_CURVE = (1, 2, 4, 8)

RESULTS_DIR = Path(__file__).parent / "results"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _workload(num_taxis: int, seed: int = 7):
    """A dense cab pair whose brute-force candidate set spans many
    shards, with scoring dominating end-to-end time."""
    world = default_cab_world(
        num_taxis=num_taxis, duration_days=1.0,
        sample_period_seconds=150, seed=seed,
    ).generate()
    return sample_linkage_pair(
        world, intersection_ratio=0.5, inclusion_probability=0.5, rng=seed
    )


def _prepare(pair, config: LinkageConfig) -> LinkageContext:
    """Run prepare + candidates once; scoring is what we time."""
    context = LinkageContext(config=config, left=pair.left, right=pair.right)
    PrepareStage(config).run(context)
    candidate_stage = candidate_stages.get(config.resolved_candidates())(config)
    candidate_stage.run(context)
    # Materialise the array views so every timed run starts warm.
    context.left_corpus.arrays()
    context.right_corpus.arrays()
    return context


def _score_once(
    prepared: LinkageContext,
    config: LinkageConfig,
    executor: Optional[Executor],
) -> Tuple[float, List]:
    """One scoring-stage run over the prepared context; returns
    (wall seconds, positive-score edges)."""
    context = LinkageContext(
        config=config,
        windowing=prepared.windowing,
        total_windows=prepared.total_windows,
        left_histories=prepared.left_histories,
        right_histories=prepared.right_histories,
        left_corpus=prepared.left_corpus,
        right_corpus=prepared.right_corpus,
        candidates=prepared.candidates,
        executor=executor,
    )
    stage = ScoringStage(config)
    start = time.perf_counter()
    stage.run(context)
    return time.perf_counter() - start, context.edges


def _best_of(rounds: int, fn) -> Tuple[float, List]:
    best = float("inf")
    edges: List = []
    for _ in range(rounds):
        elapsed, edges = fn()
        best = min(best, elapsed)
    return best, edges


def run_parallel_scoring_bench(
    results_dir: Path, num_taxis: int = 160, rounds: int = 3
) -> Tuple[float, Dict]:
    """Measure the curve; returns (headline speedup, JSON payload)."""
    config = LinkageConfig(executor="serial", score_block_size=SHARD_SIZE)
    pair = _workload(num_taxis)
    prepared = _prepare(pair, config)
    candidate_count = len(prepared.candidates)

    serial_best, serial_edges = _best_of(
        rounds, lambda: _score_once(prepared, config, None)
    )

    curve: Dict[str, Dict[str, Dict[str, float]]] = {}
    for backend in ("thread", "process"):
        curve[backend] = {}
        for workers in WORKER_CURVE:
            parallel_config = config.without(executor=backend, workers=workers)
            executor = create_executor(backend, workers)
            try:
                best, edges = _best_of(
                    rounds,
                    lambda: _score_once(prepared, parallel_config, executor),
                )
            finally:
                executor.shutdown()
            # Parity before performance: a fast wrong answer is no answer.
            assert edges == serial_edges, (
                f"{backend}@{workers} edges diverged from serial"
            )
            curve[backend][str(workers)] = {
                "best_s": best,
                "speedup": serial_best / best,
            }

    headline = curve["process"]["4"]["speedup"]
    payload = {
        "cpus": _usable_cpus(),
        "workload": {
            "world": "cab",
            "num_taxis": num_taxis,
            "entities_left": len(pair.left.entities),
            "entities_right": len(pair.right.entities),
            "candidate_pairs": candidate_count,
            "shard_size": SHARD_SIZE,
            "shards": -(-candidate_count // SHARD_SIZE),
        },
        "rounds": rounds,
        "serial": {"best_s": serial_best},
        "thread": curve["thread"],
        "process": curve["process"],
        "speedup": headline,
        "parity": "edges bit-identical across all backends and worker counts",
    }
    write_bench_json("parallel_scoring", payload, results_dir)
    return headline, payload


def test_parallel_scoring_speedup(results_dir):
    """CI smoke: parity on every backend/worker combination always; the
    wall-clock floor only where parallel hardware exists."""
    floor = float(os.environ.get("BENCH_SPEEDUP_FLOOR", DEFAULT_SPEEDUP_FLOOR))
    speedup, payload = run_parallel_scoring_bench(
        results_dir, num_taxis=60, rounds=1
    )
    assert payload["workload"]["shards"] >= 2
    if payload["cpus"] >= PARALLEL_CPUS_NEEDED:
        assert speedup >= floor, (
            f"process@4 speedup {speedup:.2f}x below the {floor}x floor"
        )


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    headline, payload = run_parallel_scoring_bench(
        RESULTS_DIR,
        num_taxis=60 if smoke else 160,
        rounds=1 if smoke else 3,
    )
    serial_ms = payload["serial"]["best_s"] * 1000
    print(
        f"serial scoring: {serial_ms:.0f} ms over "
        f"{payload['workload']['candidate_pairs']} pairs "
        f"({payload['workload']['shards']} shards, "
        f"{payload['cpus']} usable cpus)"
    )
    for backend in ("thread", "process"):
        points = ", ".join(
            f"{workers}w {entry['speedup']:.2f}x"
            for workers, entry in payload[backend].items()
        )
        print(f"{backend}: {points}")
    floor = float(os.environ.get("BENCH_SPEEDUP_FLOOR", DEFAULT_SPEEDUP_FLOOR))
    if payload["cpus"] < PARALLEL_CPUS_NEEDED:
        print(
            f"note: {payload['cpus']} usable cpu(s) — parity verified, "
            "speedup floor not enforceable on serial hardware"
        )
    elif headline < floor:
        print(f"FAIL: process@4 {headline:.2f}x below the {floor}x floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
