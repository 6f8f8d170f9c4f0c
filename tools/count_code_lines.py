#!/usr/bin/env python
"""Count code lines: the figure simplicity PRs report.

A line counts when it holds at least one token that is neither a comment
nor part of a docstring (``tokenize`` finds the tokens, ``ast`` the
docstrings — the first statement of a module, class or function when it
is a bare string).  Blank lines, comment-only lines and docstrings are
what the count leaves out, so rewriting prose moves nothing and only
code does.

Usage::

    python tools/count_code_lines.py src/repro/core/history.py src

prints one ``lines  path`` row per Python file under the paths given
(directories are walked) and the total.  Informational: it exits 0
whatever it counts.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """Every line a docstring occupies."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Lines of ``source`` holding code (see the module docstring)."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def python_files(paths: Iterable[str]) -> List[Path]:
    """The ``.py`` files named by ``paths``, directories walked, sorted."""
    files: List[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    arguments = parser.parse_args(argv)
    total = 0
    for path in python_files(arguments.paths):
        lines = count_code_lines(path.read_text())
        total += lines
        print(f"{lines:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
