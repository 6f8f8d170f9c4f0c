"""Engine-level tests: suppressions, markers, selection, report shapes."""

from __future__ import annotations

import json

import pytest

from lint import (
    JSON_SCHEMA_VERSION,
    collect_python_files,
    lint_rules,
    run_lint,
)


def _lint_source(tmp_path, source, **kwargs):
    module = tmp_path / "module.py"
    module.write_text(source)
    return run_lint([module], **kwargs)


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
def test_scoped_disable_silences_exactly_its_line(tmp_path):
    report = _lint_source(
        tmp_path,
        "import numpy as np\n"
        "a = np.random.default_rng()  # repro-lint: disable=unseeded-rng -- fixture\n"
        "b = np.random.default_rng()\n",
    )
    assert [(f.rule, f.line) for f in report.findings] == [("unseeded-rng", 3)]


def test_disable_list_covers_multiple_rules_on_one_line(tmp_path):
    report = _lint_source(
        tmp_path,
        "import time\n"
        "import numpy as np\n"
        "x = np.random.default_rng() and time.time()"
        "  # repro-lint: disable=unseeded-rng,wall-clock -- fixture\n",
    )
    assert report.ok, report.render_text()


def test_unused_suppression_is_reported(tmp_path):
    report = _lint_source(
        tmp_path,
        "x = 1  # repro-lint: disable=unseeded-rng -- nothing to silence\n",
    )
    assert [(f.rule, f.line) for f in report.findings] == [("unused-suppression", 1)]


def test_unknown_rule_in_disable_is_reported(tmp_path):
    report = _lint_source(
        tmp_path, "x = 1  # repro-lint: disable=no-such-rule\n"
    )
    assert [f.rule for f in report.findings] == ["unknown-rule"]
    assert "no-such-rule" in report.findings[0].message


def test_select_subset_skips_other_rules_suppression_audit(tmp_path):
    # A wall-clock disable is not "unused" when wall-clock never ran.
    report = _lint_source(
        tmp_path,
        "x = 1  # repro-lint: disable=wall-clock -- audited only when active\n",
        select=["unseeded-rng"],
    )
    assert report.ok, report.render_text()


def test_directives_inside_docstrings_are_inert(tmp_path):
    report = _lint_source(
        tmp_path,
        '"""Example: use ``# repro-lint: disable=unseeded-rng`` comments."""\n'
        "x = 1\n",
    )
    assert report.ok, report.render_text()


def test_stale_timing_marker_is_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "# repro-lint: timing-module -- but nothing here reads a clock\n"
        "x = 1\n",
    )
    assert [(f.rule, f.line) for f in report.findings] == [("wall-clock", 1)]
    assert "stale" in report.findings[0].message


# ---------------------------------------------------------------------------
# selection and inputs
# ---------------------------------------------------------------------------
def test_unknown_select_name_raises_with_alternatives(tmp_path):
    (tmp_path / "module.py").write_text("x = 1\n")
    with pytest.raises(KeyError, match="unseeded-rng"):
        run_lint([tmp_path], select=["not-a-rule"])


def test_ignore_removes_a_rule(tmp_path):
    report = _lint_source(
        tmp_path,
        "import numpy as np\nx = np.random.default_rng()\n",
        ignore=["unseeded-rng"],
    )
    assert report.ok
    assert "unseeded-rng" not in report.rules


def test_parse_error_becomes_a_finding(tmp_path):
    report = _lint_source(tmp_path, "def broken(:\n")
    assert [f.rule for f in report.findings] == ["parse-error"]


def test_collect_python_files_dedupes_and_skips_pycache(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
    files = collect_python_files([tmp_path, tmp_path / "pkg" / "a.py"])
    assert files == [tmp_path / "pkg" / "a.py"]


# ---------------------------------------------------------------------------
# report shapes
# ---------------------------------------------------------------------------
def test_json_schema_is_stable(tmp_path):
    report = _lint_source(tmp_path, "import numpy as np\nx = np.random.default_rng()\n")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert sorted(payload) == ["files", "findings", "rules", "version"]
    assert payload["files"] == 1
    assert payload["rules"] == lint_rules.names()
    (finding,) = payload["findings"]
    assert sorted(finding) == ["col", "line", "message", "path", "rule"]
    assert finding["rule"] == "unseeded-rng"
    assert finding["line"] == 2


def test_text_report_lists_location_rule_and_summary(tmp_path):
    report = _lint_source(tmp_path, "import numpy as np\nx = np.random.default_rng()\n")
    text = report.render_text()
    assert "module.py:2:5: unseeded-rng:" in text
    assert text.endswith("1 finding in 1 file (13 rules)")


def test_every_rule_declares_an_invariant():
    for name in lint_rules.names():
        assert lint_rules.get(name).invariant, name
