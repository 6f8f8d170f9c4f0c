"""The mypy ratchet: normalisation, multiset comparison, strict tier.

The comparison logic is tested against synthetic mypy output so the
gate's behaviour is pinned even on machines without mypy installed
(``run_mypy`` itself degrades to a skip there, which is also covered).
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_type_baseline.py"
spec = importlib.util.spec_from_file_location("check_type_baseline", _TOOL)
ratchet = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ratchet)


MYPY_OUTPUT = """\
src/repro/core/matching.py:80: error: Incompatible types in assignment  [assignment]
src/repro/core/matching.py:92:13: error: Argument 1 has incompatible type  [arg-type]
note: some informational line
src/repro/exec/backends.py:400: error: Item "None" has no attribute "map"  [union-attr]
Found 3 errors in 2 files (checked 98 source files)
"""


class TestNormalize:
    def test_strips_line_and_column_numbers(self):
        errors = ratchet.normalize_errors(MYPY_OUTPUT)
        assert errors == [
            "src/repro/core/matching.py: Incompatible types in assignment  [assignment]",
            "src/repro/core/matching.py: Argument 1 has incompatible type  [arg-type]",
            'src/repro/exec/backends.py: Item "None" has no attribute "map"  [union-attr]',
        ]

    def test_ignores_notes_and_summary_lines(self):
        assert ratchet.normalize_errors("Success: no issues found\n") == []

    def test_line_number_drift_is_invisible(self):
        before = ratchet.normalize_errors("src/a.py:10: error: boom  [misc]")
        after = ratchet.normalize_errors("src/a.py:99: error: boom  [misc]")
        assert before == after


class TestCompare:
    def test_identical_sets_pass(self):
        current = ["src/a.py: boom  [misc]"]
        assert ratchet.compare_to_baseline(current, current) == ([], 0)

    def test_new_error_is_reported(self):
        new, fixed = ratchet.compare_to_baseline(
            ["src/a.py: boom  [misc]", "src/b.py: fresh  [misc]"],
            ["src/a.py: boom  [misc]"],
        )
        assert new == ["src/b.py: fresh  [misc]"]
        assert fixed == 0

    def test_fixed_error_is_counted(self):
        new, fixed = ratchet.compare_to_baseline([], ["src/a.py: boom  [misc]"])
        assert new == []
        assert fixed == 1

    def test_duplicate_errors_are_multiset_compared(self):
        # Two occurrences of the same normalised error with only one in
        # the baseline: the extra one is new.
        new, _ = ratchet.compare_to_baseline(
            ["src/a.py: boom  [misc]"] * 2, ["src/a.py: boom  [misc]"]
        )
        assert new == ["src/a.py: boom  [misc]"]


class TestStrictTier:
    def test_analysis_errors_are_never_tolerated(self):
        errors = [
            "tools/lint/core.py: untyped def  [no-untyped-def]",
            "src/repro/core/matching.py: boom  [misc]",
        ]
        assert ratchet.strict_violations(errors) == [errors[0]]


class TestBaselineFile:
    def test_roundtrip(self):
        errors = ["src/b.py: two  [misc]", "src/a.py: one  [misc]"]
        entries, bootstrap = ratchet.read_baseline(ratchet.render_baseline(errors))
        assert entries == sorted(errors)
        assert bootstrap is False

    def test_bootstrap_marker_detected(self):
        entries, bootstrap = ratchet.read_baseline(
            "# header\n# bootstrap: first run\n"
        )
        assert entries == []
        assert bootstrap is True

    def test_committed_baseline_parses(self):
        text = (ratchet.BASELINE_PATH).read_text()
        entries, _ = ratchet.read_baseline(text)
        assert all(not entry.startswith("#") for entry in entries)


class TestEndToEnd:
    def test_main_skips_cleanly_without_mypy(self, monkeypatch, capsys):
        monkeypatch.setattr(ratchet, "run_mypy", lambda targets: None)
        assert ratchet.main([]) == 0
        assert "skipping" in capsys.readouterr().out

    def test_main_fails_on_strict_package_error(self, monkeypatch, capsys):
        monkeypatch.setattr(
            ratchet,
            "run_mypy",
            lambda targets: (
                "tools/lint/core.py:1: error: boom  [misc]\n"
            ),
        )
        assert ratchet.main([]) == 1
        assert "strict package" in capsys.readouterr().out

    def test_main_fails_on_new_basic_tier_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            ratchet,
            "run_mypy",
            lambda targets: "src/repro/core/x.py:1: error: new  [misc]\n",
        )
        baseline = tmp_path / "mypy_baseline.txt"
        baseline.write_text(ratchet.render_baseline([]))
        monkeypatch.setattr(ratchet, "BASELINE_PATH", baseline)
        assert ratchet.main([]) == 1
        assert "new mypy error" in capsys.readouterr().out

    def test_main_passes_and_mentions_shrink_when_errors_fixed(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(ratchet, "run_mypy", lambda targets: "")
        baseline = tmp_path / "mypy_baseline.txt"
        baseline.write_text(
            ratchet.render_baseline(["src/repro/core/x.py: old  [misc]"])
        )
        monkeypatch.setattr(ratchet, "BASELINE_PATH", baseline)
        assert ratchet.main([]) == 0
        assert "shrink" in capsys.readouterr().out

    def test_update_writes_frozen_baseline(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            ratchet,
            "run_mypy",
            lambda targets: "src/repro/core/x.py:3: error: old  [misc]\n",
        )
        baseline = tmp_path / "mypy_baseline.txt"
        monkeypatch.setattr(ratchet, "BASELINE_PATH", baseline)
        assert ratchet.main(["--update"]) == 0
        entries, bootstrap = ratchet.read_baseline(baseline.read_text())
        assert entries == ["src/repro/core/x.py: old  [misc]"]
        assert bootstrap is False
