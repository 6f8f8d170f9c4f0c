"""Tier-1 smoke test of the end-to-end benchmark.

Runs every workload in-process at ``--smoke`` scale (1/10 of the entity
counts and of the timed budget, plus a link-for-link comparison with the
scalar ``backend="python"`` oracle) and pins the emitted names to
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2ebench.report import load_benchmark, load_spec, main  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(capsys, *argv):
    """``run.py``'s exit code and the JSON object on its last line."""
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_harness():
    benchmark, spec = load_benchmark(), load_spec()
    assert benchmark["paths"] == ["benchmarks/e2e"]
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    assert workloads == list(WORKLOADS) == list(spec["workloads"])
    end_to_end = [metric["name"] for metric in benchmark["end_to_end"]]
    per_layer = [metric["name"] for metric in benchmark["per_layer"]]
    assert end_to_end == list(spec["end_to_end"])
    assert per_layer == list(spec["per_layer"])
    for name in workloads + end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert all(metric["bound"] <= 0.25 for metric in benchmark["end_to_end"])
    interacting = {
        name
        for row in spec["interactions"]
        for name in row["layer_metrics"] + row["moves"] + row["on"] + row["not_on"]
    }
    assert interacting <= set(workloads + end_to_end + per_layer)
    assert spec["claim"] is None


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_smoke(workload, capsys):
    benchmark = load_benchmark()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run(
            capsys, "--workload", workload, "--smoke", "--seconds", "0.4",
            "--trace", str(trace),
        )
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in benchmark[kind]]
        for metric in benchmark[kind]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if kind == "end_to_end":  # never 0: the driver takes ratios of them
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_corrupted_links_fail_the_command(capsys):
    code, result = run(
        capsys, "--workload", "batch_dense_brute", "--smoke", "--corrupt-links"
    )
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
