"""Plain-text reporting for experiment results.

Benches write the series each paper figure plots as aligned ASCII tables —
to stdout and to ``benchmarks/results/`` — so shape comparisons against the
paper need no plotting stack.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

__all__ = [
    "format_table",
    "write_report",
    "stage_timings_table",
    "parallel_efficiency_table",
    "retention_table",
    "scenario_table",
    "serving_table",
]


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e6:
            return f"{value:.3e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0])
    cells = [
        [_format_value(row.get(column, ""), precision) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(row[k]) for row in cells))
        for k, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).rjust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def stage_timings_table(
    reports: Mapping[str, object],
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """One row per linker, one column per canonical pipeline stage.

    ``reports`` maps a label ("slim", "streaming", "stlink", ...) to any
    object with a ``timings`` dict — since every linkage front door now
    emits the same stage keys (``prepare``/``candidates``/``scoring``/
    ``matching``/``threshold``), the columns line up across linkers.
    """
    from ..pipeline import STAGE_NAMES

    rows = []
    for label, report in reports.items():
        timings: Dict[str, float] = dict(getattr(report, "timings"))
        row: Dict[str, object] = {"linker": label}
        for stage in STAGE_NAMES:
            row[stage] = timings.get(stage, 0.0)
        # Sort before summing: float addition is not associative, so
        # folding in set order would make "other" hash-seed dependent.
        extra = set(timings) - set(STAGE_NAMES)
        if extra:
            row["other"] = sum(timings[key] for key in sorted(extra))
        row["total"] = sum(timings.values())
        rows.append(row)
    columns = ["linker", *STAGE_NAMES]
    if any("other" in row for row in rows):
        columns.append("other")
    columns.append("total")
    return format_table(rows, columns=columns, precision=precision, title=title)


def parallel_efficiency_table(
    reports: Mapping[str, object],
    stage: str = "scoring",
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """How well one sharded stage used its execution backend, per report.

    ``reports`` maps a label to any object with the
    :class:`~repro.pipeline.report.LinkageReport` surface (``timings``,
    ``shard_timings``, ``extras``).  Per row: the executor backend and
    worker count, the shard count, the summed worker-side shard seconds
    (*busy*) against the stage's wall-clock seconds, their ratio (the
    realised *speedup* — busy/wall ≈ 1 when serial, approaching the
    worker count under perfect scaling), and that speedup divided by the
    workers (*efficiency*).
    """
    rows = []
    for label, report in reports.items():
        shards = dict(getattr(report, "shard_timings", {})).get(stage, ())
        wall = dict(getattr(report, "timings", {})).get(stage, 0.0)
        extras = getattr(report, "extras", {}) or {}
        info = extras.get("executor", {}) if isinstance(extras, dict) else {}
        workers = int(info.get("workers", 1)) or 1
        busy = float(sum(shards))
        speedup = busy / wall if wall > 0 else float("nan")
        rows.append(
            {
                "linker": label,
                "executor": info.get("name", "serial"),
                "workers": workers,
                "shards": len(shards),
                "busy_s": busy,
                "wall_s": wall,
                "speedup": speedup,
                "efficiency": speedup / workers,
            }
        )
    return format_table(rows, precision=precision, title=title)


#: Column order of :func:`retention_table`; rows may carry any subset.
_RETENTION_COLUMNS = (
    "relink",
    "left_entities",
    "right_entities",
    "evicted_left",
    "evicted_right",
    "left_flat_entries",
    "left_flat_live",
    "right_flat_entries",
    "right_flat_live",
    "score_cache_rows",
    "lsh_entities",
    "relink_s",
)


def retention_table(
    snapshots: Sequence[Mapping[str, object]],
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Memory/eviction trajectory of a retention-bounded stream.

    ``snapshots`` is one mapping per relink, typically
    :meth:`repro.core.streaming.StreamingLinker.memory_stats` output
    enriched with the relink ordinal, the
    :class:`~repro.core.streaming.RelinkStats` eviction counts and the
    relink wall-clock (``relink_s``).  Columns appearing in no snapshot
    are omitted, so partial instrumentation still renders.  On a bounded
    stream the ``*_flat_entries`` columns plateau (and equal
    ``*_flat_live`` after each eviction — eager compaction) while an
    unbounded baseline's grow with every round.
    """
    columns = [
        column
        for column in _RETENTION_COLUMNS
        if any(column in snapshot for snapshot in snapshots)
    ]
    rows = [
        {column: snapshot.get(column, "") for column in columns}
        for snapshot in snapshots
    ]
    return format_table(rows, columns=columns, precision=precision, title=title)


#: Column order of :func:`scenario_table`.
_SCENARIO_COLUMNS = (
    "scenario",
    "config",
    "precision",
    "recall",
    "f1",
    "links",
    "candidates",
    "bin_comparisons",
    "runtime_s",
)


def scenario_table(
    cells: Sequence[object],
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Per-scenario quality-vs-speed frontier of a scenario matrix.

    ``cells`` is :func:`repro.eval.harness.run_scenarios` output (or any
    sequence of objects with a ``row()`` dict) — one row per
    ``(scenario, config)`` cell, quality columns next to the cost columns
    so robustness cliffs and their price are visible in one table.
    """
    rows = [cell.row() if hasattr(cell, "row") else dict(cell) for cell in cells]
    columns = [
        column
        for column in _SCENARIO_COLUMNS
        if any(column in row for row in rows)
    ]
    return format_table(rows, columns=columns or None, precision=precision, title=title)


#: Column order of :func:`serving_table`; rows may carry any subset.
_SERVING_COLUMNS = (
    "round",
    "events_in",
    "records_in",
    "records_retired",
    "rejected",
    "blocked",
    "queue_depth",
    "queue_peak",
    "relinks",
    "relink_failures",
    "checkpoint_failures",
    "relink_p50_s",
    "relink_p99_s",
    "snapshot_version",
    "snapshot_age_s",
    "staleness_s",
    "ingest_rate",
    "queries",
    "query_p50_ms",
    "query_p99_ms",
)


def serving_table(
    samples: Sequence[Mapping[str, object]],
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Serving-counter trajectory of an online linkage service.

    ``samples`` is one mapping per observation point — typically
    :meth:`repro.serve.LinkageService.metrics` output enriched with a
    ``round`` ordinal, as :func:`repro.serve.replay_rounds` collects.
    Per row: the ingest counters (events, records, retires), the
    backpressure counters (``rejected`` / ``blocked`` and the queue's
    current depth and high-water mark), the relink scheduler's activity
    and latency percentiles, the published snapshot's version and its
    wall-clock age / event-time staleness, the sustained ingest rate and
    the query-latency percentiles.  Columns appearing in no sample are
    omitted, so partial instrumentation still renders.
    """
    columns = [
        column
        for column in _SERVING_COLUMNS
        if any(column in sample for sample in samples)
    ]
    rows = [
        {column: sample.get(column, "") for column in columns}
        for sample in samples
    ]
    return format_table(rows, columns=columns or None, precision=precision, title=title)


def write_report(
    text: str, path: Union[str, Path], echo: bool = True
) -> None:
    """Write a report to ``path`` (creating parents) and optionally echo it
    to stdout so it lands in the bench log."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    if echo:
        print(text)
