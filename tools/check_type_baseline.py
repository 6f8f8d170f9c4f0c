#!/usr/bin/env python
"""Ratchet mypy errors downward against a committed baseline.

The policy (mirrors ``check_bench_regression.py`` for types):

* ``tools/lint/`` (the repro-lint rule pack) is typed **strict** — any
  error there fails, always, baseline or not.
* The rest of ``src/repro`` is typed *basic*: existing errors live in
  ``tools/mypy_baseline.txt`` and are tolerated, new ones fail, and when
  errors are fixed the run says so and ``--update`` shrinks the file —
  the count can only go down.

Baseline lines are normalised (the source line number is stripped) so
unrelated edits shifting code downward do not churn the file.  A
baseline containing the ``# bootstrap`` marker accepts the current
non-strict errors and prints the frozen content to commit — that is how
the first real baseline gets minted on a machine with mypy installed.

When mypy is not importable the check is skipped with exit 0 (the CI
lint job installs it; local environments without it stay green).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "tools" / "mypy_baseline.txt"
BOOTSTRAP_MARKER = "# bootstrap"
STRICT_PREFIX = "tools/lint/"
#: What mypy checks by default: the package (basic) and the linter (strict).
DEFAULT_TARGETS = ["src/repro", "tools/lint"]

#: ``path:line: error: message  [code]`` (column optional).
_ERROR_RE = re.compile(
    r"^(?P<path>[^:]+\.pyi?):(?P<line>\d+)(?::\d+)?:\s*error:\s*(?P<rest>.*)$"
)


def normalize_errors(output: str) -> List[str]:
    """Stable error keys from raw mypy stdout: ``path: message``.

    Line numbers are deliberately dropped — they drift with unrelated
    edits; path plus message is stable enough to ratchet on.
    """
    normalized = []
    for line in output.splitlines():
        match = _ERROR_RE.match(line.strip())
        if match is not None:
            path = match.group("path").replace("\\", "/")
            normalized.append(f"{path}: {match.group('rest').strip()}")
    return normalized


def read_baseline(text: str) -> Tuple[List[str], bool]:
    """Baseline entries and whether the bootstrap marker is present."""
    entries: List[str] = []
    bootstrap = False
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped.startswith(BOOTSTRAP_MARKER):
                bootstrap = True
            continue
        entries.append(stripped)
    return entries, bootstrap


def compare_to_baseline(
    current: Iterable[str], baseline: Iterable[str]
) -> Tuple[List[str], int]:
    """``(new_errors, fixed_count)`` by multiset comparison."""
    current_counts = Counter(current)
    baseline_counts = Counter(baseline)
    new_errors = sorted((current_counts - baseline_counts).elements())
    fixed = sum((baseline_counts - current_counts).values())
    return new_errors, fixed


def strict_violations(current: Iterable[str]) -> List[str]:
    """Errors inside the strict package — never baseline-able."""
    return sorted(error for error in current if error.startswith(STRICT_PREFIX))


def render_baseline(errors: Iterable[str]) -> str:
    lines = [
        "# mypy baseline — tolerated pre-existing errors (one per line,",
        "# line numbers stripped).  Regenerate with:",
        "#   python tools/check_type_baseline.py --update",
        "# The count may only go down; new errors fail CI.",
    ]
    lines.extend(sorted(set(errors)))
    return "\n".join(lines) + "\n"


def run_mypy(targets: List[str]) -> Optional[str]:
    """Raw mypy stdout, or ``None`` when mypy is not installed."""
    if importlib.util.find_spec("mypy") is None:
        return None
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            str(REPO_ROOT / "pyproject.toml"),
            *targets,
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    return result.stdout


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="freeze the current non-strict errors as the new baseline",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=DEFAULT_TARGETS,
        help="paths passed to mypy (default: src/repro tools/lint)",
    )
    options = parser.parse_args(argv)

    output = run_mypy(options.targets or DEFAULT_TARGETS)
    if output is None:
        print(
            "check_type_baseline: mypy is not installed in this "
            "environment; skipping (the CI lint job installs it)"
        )
        return 0

    current = normalize_errors(output)
    strict = strict_violations(current)
    if strict:
        print(f"{len(strict)} error(s) in strict package {STRICT_PREFIX}:")
        for error in strict:
            print(f"  {error}")
        return 1
    tolerated = [e for e in current if not e.startswith(STRICT_PREFIX)]

    if options.update:
        BASELINE_PATH.write_text(render_baseline(tolerated))
        print(
            f"baseline updated: {len(set(tolerated))} tolerated error(s) "
            f"written to {os.path.relpath(BASELINE_PATH, REPO_ROOT)}"
        )
        return 0

    baseline, bootstrap = read_baseline(
        BASELINE_PATH.read_text() if BASELINE_PATH.exists() else ""
    )
    if bootstrap:
        print(
            "baseline is in bootstrap mode: accepting "
            f"{len(tolerated)} current error(s).  Freeze it with:\n"
            "  python tools/check_type_baseline.py --update"
        )
        return 0

    new_errors, fixed = compare_to_baseline(tolerated, baseline)
    if new_errors:
        print(f"{len(new_errors)} new mypy error(s) not in the baseline:")
        for error in new_errors:
            print(f"  {error}")
        print("fix them (preferred) or regenerate with --update")
        return 1
    if fixed:
        print(
            f"nice: {fixed} baseline error(s) no longer occur; shrink the "
            "baseline with: python tools/check_type_baseline.py --update"
        )
    print(
        f"mypy ratchet OK: {len(tolerated)} tolerated error(s) "
        f"(baseline {len(baseline)})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
