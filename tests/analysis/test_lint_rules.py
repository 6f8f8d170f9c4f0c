"""Fixture-driven rule tests: one passing and one failing snippet per rule.

Each ``tests/analysis/fixtures/<rule-id>/`` directory holds ``ok.py``
(zero findings) and ``bad.py``, whose expected findings are declared
in-line with ``# lint-expect: <rule-id>`` trailing comments — the test
compares the exact (rule, line) set, so a rule that fires on the wrong
line fails just as loudly as one that misses.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from lint import lint_rules, run_lint

FIXTURES = Path(__file__).parent / "fixtures"
_EXPECT_RE = re.compile(r"#\s*lint-expect:\s*([a-z\-]+)")

RULE_IDS = sorted(path.name for path in FIXTURES.iterdir() if path.is_dir())


def _expected_findings(path: Path) -> set:
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match is not None:
            expected.add((match.group(1), lineno))
    return expected


def test_every_registered_rule_has_fixtures():
    assert RULE_IDS == lint_rules.names()


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_ok_fixture_is_clean(rule_id):
    report = run_lint([FIXTURES / rule_id / "ok.py"], select=[rule_id])
    assert report.ok, report.render_text()


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_findings_match_expectations(rule_id):
    bad = FIXTURES / rule_id / "bad.py"
    expected = _expected_findings(bad)
    assert expected, f"{bad} declares no lint-expect markers"
    report = run_lint([bad], select=[rule_id])
    actual = {(finding.rule, finding.line) for finding in report.findings}
    assert actual == expected, report.render_text()
