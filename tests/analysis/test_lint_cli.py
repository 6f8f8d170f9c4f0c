"""The ``tools/repro_lint.py`` front door: exit codes, formats, listing."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from lint import JSON_SCHEMA_VERSION, lint_rules

REPO = Path(__file__).resolve().parents[2]
LINT = REPO / "tools" / "repro_lint.py"
FIXTURES = Path(__file__).parent / "fixtures"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), *args], capture_output=True, text=True
    )


def test_clean_file_exits_zero():
    result = _run(str(FIXTURES / "wall-clock" / "ok.py"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_findings_exit_one_with_location_and_rule():
    bad = FIXTURES / "wall-clock" / "bad.py"
    result = _run("--select", "wall-clock", str(bad))
    assert result.returncode == 1
    assert f"{bad}:7:" in result.stdout
    assert "wall-clock" in result.stdout


def test_json_format_carries_the_schema_version():
    bad = FIXTURES / "unseeded-rng" / "bad.py"
    result = _run("--format", "json", "--select", "unseeded-rng", str(bad))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert {finding["rule"] for finding in payload["findings"]} == {"unseeded-rng"}


def test_list_rules_prints_every_id_and_invariant():
    result = _run("--list-rules")
    assert result.returncode == 0
    for name in lint_rules.names():
        assert f"{name}: " in result.stdout


def test_unknown_rule_id_is_a_usage_error():
    result = _run("--select", "no-such-rule", str(FIXTURES))
    assert result.returncode == 2
    assert "no-such-rule" in result.stderr


def test_missing_path_is_a_usage_error():
    result = _run("definitely/not/a/path")
    assert result.returncode == 2
