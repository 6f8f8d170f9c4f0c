#!/usr/bin/env python
"""A/B one end-to-end workload between two checkouts, in alternating pairs.

Usage::

    git worktree add ../parent HEAD~1    # or any second checkout
    python tools/ab_bench.py --parent ../parent --change . \\
        --workload batch_dense_brute --seed 11 --pairs 10

runs ``benchmarks/e2e/run.py --workload W --seed S`` once in each
checkout, ``--pairs`` times, the parent first in odd pairs and the change
first in even ones; each run is its own process in its own checkout
(``run.py`` measures that checkout's ``src/`` for the ``run_seconds`` of
that checkout's ``BENCHMARK.json``).  Only the last line of
each run's output is read: the JSON object ``{"correct", "attempted",
"failed", "metrics"}``.

It prints every run, then, per end-to-end metric of ``BENCHMARK.json``
(read from the parent checkout), both sides' median and q1–q3, how many
pairs the change won (ties count for neither side), and a verdict:

* ``unresolved`` — either side's q1–q3 spread, relative to the parent
  median, exceeds the metric's bound, and the two sides' runs overlap:
  too noisy to tell;
* ``worse beyond bound`` — the change median is worse than the parent's
  by more than the bound;
* ``within bound (n<10)`` — fewer than 10 pairs: not worse beyond the
  bound, and too few pairs for a gain to be claimed whatever the wins;
* ``better`` — at least 10 pairs, the change won at least 9 of every 10
  and the medians differ by more than the parent's q1–q3 spread, in the
  metric's better direction: the rule a claimed gain must pass;
* ``within bound`` — none of the above.

``--trace`` runs traced and tabulates the ``--layer NAME`` rows
(repeatable, each a ``per_layer`` metric of ``BENCHMARK.json``) instead:
a traced run reports per-layer metrics only and an untraced one
end-to-end metrics only, so ``--layer`` without ``--trace``, or naming no
declared ``per_layer`` metric, is a usage error before any run starts.
Exit status is 1 when a run
fails its checks, a run's operations fail, or a verdict is ``worse
beyond bound``; else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

RUNNER = Path("benchmarks") / "e2e" / "run.py"


class Summary(NamedTuple):
    """Median and quartiles of one side's values."""

    median: float
    q1: float
    q3: float

    @property
    def spread(self) -> float:
        return self.q3 - self.q1


def summarize(values: Sequence[float]) -> Summary:
    """Median and q1 / q3 by linear interpolation between order statistics
    (numpy's default percentile); a single value is its own quartiles."""
    if len(values) == 1:
        return Summary(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Summary(median, q1, q3)


def wins(
    parent: Sequence[float], change: Sequence[float], lower_is_better: bool
) -> int:
    """Pairs in which the change is strictly better than the parent."""
    if lower_is_better:
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    lower_is_better: bool,
    bound: float,
) -> str:
    """The call for one metric over paired runs (see the module docstring)."""
    before, after = summarize(parent), summarize(change)
    allowed = bound * abs(before.median)
    gain = after.median - before.median
    if lower_is_better:
        gain = -gain
        separated = max(change) < min(parent)
    else:
        separated = min(change) > max(parent)
    if max(before.spread, after.spread) > allowed and not separated:
        return "unresolved"
    if -gain > allowed:
        return "worse beyond bound"
    if len(parent) < 10:
        return "within bound (n<10)"
    won = wins(parent, change, lower_is_better)
    if 10 * won >= 9 * len(parent) and gain > before.spread:
        return "better"
    return "within bound"


def run_once(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    """One ``run.py`` process in ``checkout``: its last output line, parsed."""
    command = [
        sys.executable, str(RUNNER), "--workload", workload,
        "--seed", str(seed), "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"ab_bench: {checkout}: no result line\n{done.stderr[-2000:]}")


def _number(value: float) -> str:
    """Four significant digits; counts in full."""
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.4g}"


def _format(summary: Summary) -> str:
    median, q1, q3 = map(_number, summary)
    return f"{median} ({q1}–{q3})"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ab_bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--parent", type=Path, required=True, help="baseline")
    parser.add_argument("--change", type=Path, required=True, help="the change")
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json one")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=10, help="run pairs")
    parser.add_argument("--trace", action="store_true", help="run traced")
    parser.add_argument(
        "--layer", action="append", default=[], metavar="NAME",
        help="also tabulate this per-layer metric (repeatable)",
    )
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] + spec["per_layer"]
    bounds: Dict[str, float] = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in declared}
    if args.layer and not args.trace:
        parser.error("--layer needs --trace: an untraced run reports no layer")
    layers = {m["name"] for m in spec["per_layer"]}
    for name in args.layer:
        if name not in layers:
            parser.error(f"--layer {name}: no such per_layer metric in BENCHMARK.json")
    names = args.layer if args.trace else list(bounds)

    sides = [("parent", args.parent), ("change", args.change)]
    values: Dict[str, Dict[str, List[float]]] = {
        side: {name: [] for name in names} for side, _ in sides
    }
    failing = False
    for index in range(args.pairs):
        for side, checkout in sides[:: 1 if index % 2 == 0 else -1]:
            result = run_once(checkout, args.workload, args.seed, args.trace)
            metrics = result["metrics"]
            for name in names:
                values[side][name].append(metrics[name]["value"])
            failing |= not result["correct"] or result["failed"] > 0
            shown = "  ".join(f"{n}={_number(metrics[n]['value'])}" for n in names)
            print(
                f"pair {index + 1} {side:6s} correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}  {shown}",
                flush=True,
            )

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, median (q1–q3)")
    for name in names:
        parent, change = values["parent"][name], values["change"][name]
        won = wins(parent, change, lower[name])
        bound = bounds.get(name)
        call = "-" if bound is None else verdict(parent, change, lower[name], bound)
        failing |= call == "worse beyond bound"
        before, after = summarize(parent), summarize(change)
        delta = (after.median / before.median - 1.0) * 100 if before.median else 0.0
        print(
            f"{name:32s} {_format(before):28s} -> {_format(after):28s} "
            f"{delta:+6.1f} %  wins {won}/{args.pairs}  {call}"
        )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
