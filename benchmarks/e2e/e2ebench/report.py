"""Metric assembly, the command line, and the multi-run reports.

One workload runs in-process (``--workload NAME``) and ends by printing a
single JSON object — the form the benchmark driver reads.  Without
``--workload`` every workload runs in a subprocess of its own (so
``peak_rss_mb`` is per workload), and ``--trace`` / ``--repeat`` /
``--spread`` turn the collected runs into ``results/layers.json``,
``results/repeatability.json`` and ``results/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .workloads import WORKLOADS, run_workload

__all__ = ["main"]

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
RUN_PY = HERE / "run.py"


def load_benchmark() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_spec() -> Dict:
    return json.loads((HERE / "spec.json").read_text())


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------
def run_single(args: argparse.Namespace) -> int:
    benchmark, spec = load_benchmark(), load_spec()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](
        spec["workloads"][args.workload]["params"],
        seed=args.seed,
        scale=args.scale,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
        probe_reference=float(spec["probe_reference_s"]),
        oracle=args.smoke,
        corrupt=args.corrupt_links,
    )
    try:
        setup_seconds = run_workload(
            workload, 1 if args.smoke else int(spec["setup_repeats"])
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    if args.trace:
        kind = "per_layer"
        names = [metric["name"] for metric in benchmark[kind]]
        values = workload.per_layer_values(names)
        if not args.smoke:
            workload.tracer.write_chrome_trace(
                RESULTS / f"trace_{workload.name}.json"
            )
    else:
        kind = "end_to_end"
        values = workload.end_to_end_values(setup_seconds)
    units = {metric["name"]: metric["unit"] for metric in benchmark[kind]}
    samples = len(workload.latency_samples())
    print(f"# {workload.name} seed={args.seed} scale={args.scale} "
          f"seconds={args.seconds} trace={int(bool(args.trace))}: "
          f"{samples} latency samples, {workload.setups} set-ups, "
          f"{workload.attempted} operations attempted")
    for name, value in values.items():
        print(f"{name:36s} {value:16.6f} {units[name]}")
    for failure in workload.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not workload.failures,
        "attempted": max(1, workload.attempted),
        "failed": len(workload.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# every workload, one subprocess each
# ---------------------------------------------------------------------------
def run_child(name: str, seed: int, trace: int, args: argparse.Namespace) -> Dict:
    command = [
        sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", str(args.scale),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{name} (seed {seed}) exited {done.returncode}")
    result = json.loads(lines[-1])
    result["values"] = {k: v["value"] for k, v in result.pop("metrics").items()}
    return result


def run_set(seed: int, trace: int, args: argparse.Namespace) -> Dict[str, Dict]:
    results = {}
    for name in WORKLOADS:
        results[name] = run_child(name, seed, trace, args)
        state = "ok" if results[name]["correct"] else "FAILED"
        print(f"-- {name} seed={seed} trace={trace}: {state} "
              f"({results[name]['failed']}/{results[name]['attempted']} failed)")
        for metric, value in results[name]["values"].items():
            print(f"   {metric:36s} {value:16.6f}")
    return results


#: The four headline layers: its share metric(s), the workloads the layer
#: should dominate and the workloads on which it should not move.
HEADLINE_LAYERS = {
    "lsh": (
        ["pipeline.candidates_share"],
        ["batch_sparse_lsh"], ["batch_dense_brute"],
    ),
    "core.kernels": (
        ["kernels.score_pairs_batch_share"],
        ["batch_dense_brute"], ["stream_trickle"],
    ),
    "score_cache+orchestration+transaction": (
        ["scoring.orchestration_share", "streaming.unattributed_share"],
        ["stream_trickle"], ["batch_sparse_lsh", "batch_dense_brute"],
    ),
    "store": (
        ["store.save_share"],
        ["stream_churn_disk", "serve_open_loop"],
        ["batch_sparse_lsh", "batch_dense_brute"],
    ),
}


def headline_shares(layers: Dict[str, Dict[str, float]]) -> Dict[str, Dict]:
    """Per headline layer: its self-time share on every workload, and
    whether the share where it should dominate is at least three times
    the share (itself under 15 %) where it should not move."""
    table = {}
    for layer, (metrics, on, off) in HEADLINE_LAYERS.items():
        shares = {
            # Orchestration counts toward the cache layer only where a
            # cache is attached; batch runs have none.
            name: sum(values[metric] for metric in metrics)
            if layer != "score_cache+orchestration+transaction"
            or values["score_cache.hits"] + values["score_cache.misses"]
            else 0.0
            for name, values in layers.items()
        }
        low = min(shares[name] for name in on)
        high = max(shares[name] for name in off)
        table[layer] = {
            "share": shares,
            "on": on,
            "should_not_move": off,
            "holds": low >= 3 * high and high < 0.15,
        }
    return table


def write_layers(args: argparse.Namespace, plain: Dict, traced: Dict) -> None:
    layers = {name: result["values"] for name, result in traced.items()}
    document = {
        "claim": None,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "end_to_end": {n: r["values"] for n, r in plain.items()},
        "per_layer": layers,
        "headline_layers": headline_shares(layers),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "layers.json").write_text(json.dumps(document, indent=1) + "\n")


def compare_sets(
    sets: List[Dict[str, Dict]], benchmark: Dict, repeat: bool
) -> Dict:
    """Per end-to-end metric x workload: with ``repeat`` the relative
    difference between two back-to-back sets, else the quartile spread of
    the sets as a share of their median — each against the metric's bound."""
    rows, unresolved = {}, 0
    for metric in benchmark["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in WORKLOADS:
            series = [s[workload]["values"][name] for s in sets]
            middle = statistics.median(series)
            if repeat:
                first, second = series[0], series[1]
                worse = (second - first) if metric["better"] == "lower" else (first - second)
                measure = worse / first if first else 0.0
            else:
                q1, _, q3 = statistics.quantiles(series, n=4)
                measure = (q3 - q1) / middle if middle else 0.0
            resolved = abs(measure) <= bound
            unresolved += not resolved
            rows[f"{workload}/{name}"] = {
                "values": series,
                "median": middle,
                "relative_difference" if repeat else "spread": measure,
                "bound": bound,
                "status": "ok" if resolved else "UNRESOLVED",
            }
            print(f"{workload:20s} {name:16s} median {middle:14.6f} "
                  f"{'diff' if repeat else 'spread'} {measure:+8.4f} "
                  f"bound {bound:.2f} {rows[f'{workload}/{name}']['status']}")
    return {"rows": rows, "unresolved": unresolved}


def run_all(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    correct = True
    if args.repeat > 1 or args.spread > 1:
        repeat = args.repeat > 1
        seeds = (
            [args.seed] * args.repeat
            if repeat
            else [args.seed + k for k in range(args.spread)]
        )
        sets = [run_set(seed, 0, args) for seed in seeds]
        correct = all(r["correct"] for s in sets for r in s.values())
        report = compare_sets(sets, benchmark, repeat)
        report.update({"seeds": seeds, "scale": args.scale, "seconds": args.seconds})
        RESULTS.mkdir(parents=True, exist_ok=True)
        target = "repeatability.json" if repeat else "spread.json"
        (RESULTS / target).write_text(json.dumps(report, indent=1) + "\n")
        correct = correct and not (repeat and report["unresolved"])
    else:
        plain = run_set(args.seed, 0, args)
        correct = all(r["correct"] for r in plain.values())
        if args.trace:
            traced = run_set(args.seed, 1, args)
            correct = correct and all(r["correct"] for r in traced.values())
            write_layers(args, plain, traced)
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(
        prog="run.py", description="End-to-end, layer-attributed benchmark."
    )
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-region budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/10 scale and budget, plus the python oracle")
    parser.add_argument("--scale", type=float, default=None,
                        help="multiplies entity counts (default 1.0)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="N same-seed sets -> results/repeatability.json")
    parser.add_argument("--spread", type=int, default=1,
                        help="N sets on consecutive seeds -> results/spread.json")
    parser.add_argument("--corrupt-links", action="store_true",
                        help="self-test: drop a link before the checks")
    args = parser.parse_args(argv)
    shrink = 0.1 if args.smoke else 1.0
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"] * shrink
    if args.scale is None:
        args.scale = shrink
    return run_single(args) if args.workload else run_all(args)
