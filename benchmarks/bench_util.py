"""Shared helpers for the figure benchmarks.

Besides the sweep helpers, this module owns the machine-readable results
channel: :func:`write_bench_json` writes ``BENCH_<name>.json`` files into
``benchmarks/results/`` (component timings, speedups vs. the scalar
backend, environment stamps) so the performance trajectory can be tracked
across PRs by diffing or plotting the JSON series instead of scraping
ASCII tables.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.core.similarity import SimilarityConfig
from repro.pipeline import LinkageConfig
from repro.data.sampling import LinkagePair
from repro.eval import format_table, run_pipeline, write_report

__all__ = [
    "spatiotemporal_grid",
    "average_records",
    "write_bench_json",
    "write_series",
    "time_callable",
]


def time_callable(fn, rounds: int = 5, warmup: int = 1) -> Dict[str, float]:
    """Best/mean wall-clock seconds of ``fn()`` over ``rounds`` runs."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "best_s": min(samples),
        "mean_s": sum(samples) / len(samples),
        "rounds": rounds,
    }


def write_bench_json(name: str, payload: Dict, results_dir: Path) -> Path:
    """Write one benchmark's machine-readable results.

    The file lands at ``results_dir / BENCH_<name>.json`` with an
    environment stamp merged in; the payload should carry component
    timings and, where applicable, ``speedup`` entries computed against
    the scalar (``backend="python"``) oracle.
    """
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{name}.json"
    document = {
        "bench": name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **payload,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def write_series(rows: List[Dict], path: Path, title: str) -> None:
    """Write a figure's series whose rows carry wall-clock columns.

    ``path`` gets every column but the ``*runtime_s`` ones — it is
    committed, and CI fails when a regenerated series differs from it, so
    it must be byte-identical run to run.  The full table, clocks
    included, goes to the git-ignored sibling ``<stem>_runtime.txt``.
    """
    columns = [c for c in rows[0] if not c.endswith("runtime_s")]
    write_report(
        format_table(rows, columns=columns, precision=3, title=title), path
    )
    write_report(
        format_table(rows, precision=3, title=title),
        path.with_name(f"{path.stem}_runtime.txt"),
        echo=False,
    )


def average_records(pair: LinkagePair) -> float:
    """Mean records per entity across both sides of a pair."""
    left = pair.left.num_records / max(1, pair.left.num_entities)
    right = pair.right.num_records / max(1, pair.right.num_entities)
    return (left + right) / 2.0


def spatiotemporal_grid(
    pair: LinkagePair,
    levels: Sequence[int],
    widths_minutes: Sequence[float],
    base: SimilarityConfig | None = None,
) -> List[Dict[str, float]]:
    """Run SLIM over a (spatial level x window width) grid.

    Returns one row per grid point with the four measures the paper's
    Figs. 4 and 5 plot: precision, recall, alibi entity pairs and pairwise
    bin comparisons.
    """
    base = base or SimilarityConfig()
    rows: List[Dict[str, float]] = []
    for width in widths_minutes:
        for level in levels:
            config = LinkageConfig(
                similarity=base.without(
                    spatial_level=level, window_width_minutes=width
                )
            )
            measures = run_pipeline(pair, config)
            rows.append(
                {
                    "window_min": width,
                    "level": level,
                    "precision": measures.quality.precision,
                    "recall": measures.quality.recall,
                    "f1": measures.f1,
                    "alibi_pairs": measures.result.stats.alibi_entity_pairs,
                    "alibi_bin_pairs": measures.result.stats.alibi_bin_pairs,
                    "bin_comparisons": measures.bin_comparisons,
                    "runtime_s": measures.runtime_seconds,
                }
            )
    return rows
