"""Fault-recovery benchmark: what surviving injected faults costs.

Runs the full linkage pipeline on the dense cab workload under the
``"thread"`` and ``"process"`` backends twice each — once fault-free,
once under a deterministic fault plan (a transient exception plus a
worker crash on the first two score blocks) — asserting **bit-identical
links** between the two runs, and records the recovery overhead
machine-readably in ``benchmarks/results/BENCH_fault_recovery.json``.

The headline entry is ``overhead_ratio`` — faulted wall-clock over clean
wall-clock, worst backend.  Recovery re-executes only the sabotaged
blocks (plus, for a worker crash, the in-flight collateral), so the
ratio should stay small; the regression gate
(``tools/check_bench_regression.py``) fails when it grows far beyond the
committed baseline.  The ``parity`` object is hard-checked by the same
gate: a recovery that changes the links is a correctness bug, not a
performance number.

Run stand-alone:

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py --smoke

or through pytest:

    PYTHONPATH=src python -m pytest -q benchmarks/bench_fault_recovery.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from bench_util import write_bench_json

from repro.data import sample_linkage_pair
from repro.data.synth import default_cab_world
from repro.exec import FaultPlan, inject
from repro.pipeline import LinkageConfig, LinkagePipeline

#: The injected schedule: a transient exception on the first score block
#: and a worker crash on the second (executor-lifetime ordinals — the
#: scoring stage builds a fresh executor per run, so they always land).
FAULT_SPEC = "transient@0;crash@1"

#: Shard granularity: small enough that the workload spans several score
#: blocks, so both sabotaged ordinals exist and recovery has real work.
SHARD_SIZE = 256

BACKENDS = ("thread", "process")

RESULTS_DIR = Path(__file__).parent / "results"


def _workload(num_taxis: int, seed: int = 7):
    world = default_cab_world(
        num_taxis=num_taxis, duration_days=1.0,
        sample_period_seconds=150, seed=seed,
    ).generate()
    return sample_linkage_pair(
        world, intersection_ratio=0.5, inclusion_probability=0.5, rng=seed
    )


def _run_once(pair, config: LinkageConfig, plan: FaultPlan):
    """One full pipeline run under ``plan`` (empty plan = fault-free —
    and masks any ``REPRO_FAULTS`` the environment carries)."""
    with inject(plan):
        start = time.perf_counter()
        report = LinkagePipeline(config).run(pair.left, pair.right)
    return time.perf_counter() - start, report


def _best_run(rounds: int, pair, config: LinkageConfig, plan: FaultPlan):
    best = float("inf")
    report = None
    for _ in range(rounds):
        elapsed, report = _run_once(pair, config, plan)
        best = min(best, elapsed)
    return best, report


def run_fault_recovery_bench(
    results_dir: Path, num_taxis: int = 60, rounds: int = 2
) -> Tuple[float, Dict]:
    """Measure recovery overhead; returns (headline ratio, JSON payload)."""
    pair = _workload(num_taxis)
    plan = FaultPlan.from_spec(FAULT_SPEC)
    clean_plan = FaultPlan()

    per_backend: Dict[str, Dict[str, object]] = {}
    links_identical = True
    all_recovered = True
    for backend in BACKENDS:
        config = LinkageConfig(
            executor=backend, workers=2, score_block_size=SHARD_SIZE
        )
        clean_s, clean = _best_run(rounds, pair, config, clean_plan)
        faulted_s, faulted = _best_run(rounds, pair, config, plan)
        shards = faulted.extras["executor"]["shards"]
        assert shards > 2, (
            f"{backend}: only {shards} score blocks — the fault plan "
            "needs ordinals 0 and 1 to exist"
        )
        # Parity before performance: recovery must not change the answer.
        identical = (
            faulted.links == clean.links
            and faulted.edges == clean.edges
            and faulted.stats == clean.stats
        )
        assert identical, f"{backend}: faulted links diverged from clean"
        links_identical = links_identical and identical
        counters = faulted.extras.get("faults", {})
        all_recovered = all_recovered and not counters.get("task_errors", 0)
        per_backend[backend] = {
            "clean_s": clean_s,
            "faulted_s": faulted_s,
            "overhead_ratio": faulted_s / clean_s,
            "recovery": counters,
        }

    headline = max(
        entry["overhead_ratio"] for entry in per_backend.values()
    )
    payload = {
        "workload": {
            "world": "cab",
            "num_taxis": num_taxis,
            "entities_left": len(pair.left.entities),
            "entities_right": len(pair.right.entities),
            "shard_size": SHARD_SIZE,
            "fault_spec": FAULT_SPEC,
        },
        "rounds": rounds,
        **per_backend,
        "overhead_ratio": headline,
        "parity": {
            "links_identical": links_identical,
            "all_tasks_recovered": all_recovered,
            "max_score_delta": 0.0,
        },
    }
    write_bench_json("fault_recovery", payload, results_dir)
    return headline, payload


def test_fault_recovery_overhead(results_dir):
    """CI smoke: parity always; recovery must actually have happened."""
    headline, payload = run_fault_recovery_bench(
        results_dir, num_taxis=60, rounds=1
    )
    assert payload["parity"]["links_identical"] is True
    assert payload["parity"]["all_tasks_recovered"] is True
    for backend in BACKENDS:
        assert payload[backend]["recovery"]["faults"] >= 2
    assert headline > 0.0


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    headline, payload = run_fault_recovery_bench(
        RESULTS_DIR,
        num_taxis=60 if smoke else 120,
        rounds=1 if smoke else 3,
    )
    for backend in BACKENDS:
        entry = payload[backend]
        recovery = entry["recovery"]
        print(
            f"{backend}: clean {entry['clean_s'] * 1000:.0f} ms, "
            f"faulted {entry['faulted_s'] * 1000:.0f} ms "
            f"({entry['overhead_ratio']:.2f}x; "
            f"{recovery.get('faults', 0)} faults, "
            f"{recovery.get('retries', 0)} retries, "
            f"{recovery.get('worker_crashes', 0)} crashes)"
        )
    print(
        f"worst-case recovery overhead {headline:.2f}x; links bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
