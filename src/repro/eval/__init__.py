"""Evaluation: linkage metrics, the experiment harness and reporting."""

from .harness import (
    RunMeasures,
    ScenarioCell,
    run_grid,
    run_pipeline,
    run_scenarios,
    score_all_pairs,
)
from .metrics import (
    LinkageQuality,
    hit_precision_at_k,
    precision_recall_f1,
    relative_f1,
    speedup,
)
from .reporting import (
    format_table,
    parallel_efficiency_table,
    retention_table,
    scenario_table,
    serving_table,
    write_report,
)

__all__ = [
    "LinkageQuality",
    "precision_recall_f1",
    "hit_precision_at_k",
    "relative_f1",
    "speedup",
    "RunMeasures",
    "ScenarioCell",
    "run_pipeline",
    "run_grid",
    "run_scenarios",
    "score_all_pairs",
    "scenario_table",
    "format_table",
    "parallel_efficiency_table",
    "retention_table",
    "serving_table",
    "write_report",
]
