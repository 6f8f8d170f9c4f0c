#!/usr/bin/env python
"""Run the repro-lint rule pack over a set of files or directories.

Usage::

    python tools/repro_lint.py src tools benchmarks
    python tools/repro_lint.py --format json src
    python tools/repro_lint.py --list-rules
    python tools/repro_lint.py --select unseeded-rng,wall-clock src

Exit status: 0 when clean, 1 when any non-suppressed finding survives,
2 on usage errors (unknown rule ids, missing paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from lint import lint_rules, run_lint  # noqa: E402


def _split_rule_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (e.g. src tools benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule id and its invariant, then exit",
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for name in lint_rules.names():
            print(f"{name}: {lint_rules.get(name).invariant}")
        return 0

    if not options.paths:
        parser.error("no paths given (and --list-rules not requested)")
    missing = [path for path in options.paths if not path.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(map(str, missing))}")

    try:
        report = run_lint(
            options.paths,
            select=_split_rule_list(options.select),
            ignore=_split_rule_list(options.ignore),
        )
    except KeyError as error:
        print(f"repro-lint: {error.args[0]}", file=sys.stderr)
        return 2

    if options.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
