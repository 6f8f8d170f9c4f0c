"""The repro-lint engine: findings, rules, suppressions, reports.

This module is the AST-lint counterpart of :mod:`repro.registry`-style
plugin architecture: every rule is a :class:`LintRule` registered in the
:data:`lint_rules` registry under a stable kebab-case id, and
:func:`run_lint` drives the selected rules over a set of files without
ever *importing* the code under analysis — rules see source text and
:mod:`ast` trees only, so linting cannot execute side effects.

Suppressions are per-line and per-rule::

    risky_line()  # repro-lint: disable=wall-clock -- one-line justification

A suppression that silences nothing is itself reported
(``unused-suppression``), and a suppression naming an id no rule owns is
reported as ``unknown-rule`` — disable comments cannot rot silently.
Modules whose *contract* is wall-clock measurement opt out of the clock
rule wholesale with a module-level ``# repro-lint: timing-module`` marker
(also checked for staleness).

>>> import pathlib, tempfile
>>> with tempfile.TemporaryDirectory() as root:
...     bad = pathlib.Path(root, "mod.py")
...     _ = bad.write_text("import numpy as np\\nrng = np.random.default_rng()\\n")
...     report = run_lint([bad])
>>> [(finding.rule, finding.line) for finding in report.findings]
[('unseeded-rng', 2)]
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.registry import Registry

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "JSON_SCHEMA_VERSION",
    "UNKNOWN_RULE",
    "UNUSED_SUPPRESSION",
    "collect_python_files",
    "lint_rules",
    "parse_module",
    "register_rule",
    "run_lint",
]

#: Version stamp of the JSON report layout; bump on any shape change
#: (pinned by ``tests/analysis/test_lint_framework.py``).
JSON_SCHEMA_VERSION = 1

#: Framework-owned finding ids (not registered rules, never suppressible).
UNUSED_SUPPRESSION = "unused-suppression"
UNKNOWN_RULE = "unknown-rule"

#: Directive comments: ``disable=a,b -- why`` or a module marker.  The
#: pattern is anchored at the start of a comment *token* (scanned via
#: :mod:`tokenize`), so directive-shaped text inside docstrings or
#: ``#:`` doc-comments never counts.
_DIRECTIVE_RE = re.compile(
    r"^#\s*repro-lint:\s*"
    r"(?:disable=(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
    r"|(?P<marker>[a-z][a-z\-]*-module))"
)

#: Module-level markers the engine recognises (rules read them off
#: :attr:`ModuleContext.markers`).
KNOWN_MARKERS = frozenset({"timing-module"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def location(self) -> str:
        """``path:line:col`` — the clickable anchor of the finding."""
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        """The one-line human form."""
        return f"{self.location()}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """The stable JSON row (schema pinned by the test suite)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one parsed module.

    ``rel_path`` is the path exactly as handed to :func:`run_lint`
    (posix-normalised) — rules that scope themselves to repo locations
    match on its suffix, so linting a copied fixture never inherits the
    privileges of the module it was copied from.
    """

    path: Path
    rel_path: str
    source: str
    tree: ast.Module
    #: ``line -> rule ids disabled on that line``.
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: ``marker -> line it was declared on`` (e.g. ``timing-module``).
    markers: Dict[str, int] = field(default_factory=dict)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node`` in this module."""
        return Finding(
            path=self.rel_path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)) + 1,
            rule=rule,
            message=message,
        )


class LintRule:
    """Base class of every repro-lint rule.

    Subclasses set :attr:`id` (stable kebab-case, what disable comments
    name) and :attr:`invariant` (the one-line contract the rule guards —
    rendered by ``--list-rules`` and the README tooling table), then
    implement :meth:`check` for per-module analysis and/or
    :meth:`finalize` for whole-tree invariants (uniqueness, cross-module
    export checks).  Rules must be stateless across runs: anything
    cross-module belongs in :meth:`finalize`, which sees every context.
    """

    id: str = ""
    invariant: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Per-module findings (default: none)."""
        return iter(())

    def finalize(self, contexts: Sequence[ModuleContext]) -> Iterator[Finding]:
        """Whole-tree findings once every module is parsed (default: none)."""
        return iter(())


#: The rule registry — the analysis mirror of the pipeline's stage
#: registries; register custom project rules with :func:`register_rule`.
lint_rules: Registry[LintRule] = Registry("lint rule")  # repro-lint: disable=registry-config-knob -- rules are selected by repro_lint --select, not LinkageConfig


def register_rule(cls: type) -> type:
    """Class decorator: instantiate and register a :class:`LintRule`.

    >>> @register_rule
    ... class Demo(LintRule):
    ...     id = "demo-rule"
    ...     invariant = "doctest demo"
    >>> "demo-rule" in lint_rules
    True
    >>> lint_rules.unregister("demo-rule")  # doctest hygiene
    """
    rule = cls()
    if not rule.id:
        raise ValueError(f"lint rule {cls.__name__} must set a non-empty id")
    lint_rules.register(rule.id)(rule)
    return cls


@dataclass
class LintReport:
    """The outcome of one :func:`run_lint` pass."""

    findings: List[Finding]
    files: int
    rules: List[str]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """The stable JSON report shape (``version`` gates consumers)."""
        return {
            "version": JSON_SCHEMA_VERSION,
            "files": self.files,
            "rules": list(self.rules),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def render_text(self) -> str:
        """Human output: one line per finding plus a summary line."""
        lines = [finding.render() for finding in self.findings]
        summary = (
            f"repro-lint: {len(self.findings)} finding"
            f"{'' if len(self.findings) == 1 else 's'} "
            f"in {self.files} file{'' if self.files == 1 else 's'} "
            f"({len(self.rules)} rules)"
        )
        return "\n".join([*lines, summary])


def collect_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    Hidden directories and ``__pycache__`` are skipped; a named file is
    taken as-is (so fixtures need no ``.py``-suffix gymnastics).
    """
    seen: Set[Path] = set()
    ordered: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates = sorted(
                child
                for child in path.rglob("*.py")
                if "__pycache__" not in child.parts
                and not any(part.startswith(".") for part in child.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                ordered.append(candidate)
    return ordered


def _iter_comments(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, text)`` for every comment token in ``source``."""
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return  # a parse failure is reported separately by run_lint


def _scan_directives(
    source: str,
) -> Tuple[Dict[int, Set[str]], Dict[str, int]]:
    """Per-line disable sets and module markers from comment tokens."""
    suppressions: Dict[int, Set[str]] = {}
    markers: Dict[str, int] = {}
    for lineno, comment in _iter_comments(source):
        match = _DIRECTIVE_RE.match(comment)
        if match is None:
            continue
        if match.group("rules"):
            names = {
                name.strip()
                for name in match.group("rules").split(",")
                if name.strip()
            }
            suppressions.setdefault(lineno, set()).update(names)
        elif match.group("marker"):
            markers.setdefault(match.group("marker"), lineno)
    return suppressions, markers


def parse_module(path: Path, rel_path: str) -> ModuleContext:
    """Parse one file into a :class:`ModuleContext` (raises on bad syntax)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    suppressions, markers = _scan_directives(source)
    return ModuleContext(
        path=path,
        rel_path=rel_path,
        source=source,
        tree=tree,
        suppressions=suppressions,
        markers=markers,
    )


def _select_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Tuple[str, LintRule]]:
    chosen = list(select) if select else lint_rules.names()
    for name in chosen:
        lint_rules.get(name)  # raises with the known names on a typo
    ignored = set(ignore or ())
    for name in ignored:
        lint_rules.get(name)
    return [(name, lint_rules.get(name)) for name in chosen if name not in ignored]


def run_lint(
    paths: Iterable[Path],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run the (selected) rule pack over ``paths`` and apply suppressions.

    Returns every surviving finding sorted by location; files that fail
    to parse contribute a ``parse-error`` finding instead of aborting the
    whole pass.  Unused and unknown suppressions are appended as
    framework findings — but only for rules that actually ran, so a
    ``--select`` subset never misreports the other rules' disables.
    """
    rules = _select_rules(select, ignore)
    active_ids = {name for name, _ in rules}
    files = collect_python_files(paths)

    contexts: List[ModuleContext] = []
    findings: List[Finding] = []
    for path in files:
        rel_path = path.as_posix()
        try:
            contexts.append(parse_module(path, rel_path))
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            line = getattr(error, "lineno", None) or 1
            findings.append(
                Finding(
                    path=rel_path,
                    line=int(line),
                    col=1,
                    rule="parse-error",
                    message=f"could not parse module: {error}",
                )
            )

    for _, rule in rules:
        for ctx in contexts:
            findings.extend(rule.check(ctx))
        findings.extend(rule.finalize(contexts))

    kept: List[Finding] = []
    used: Set[Tuple[str, int, str]] = set()
    by_path = {ctx.rel_path: ctx for ctx in contexts}
    for finding in findings:
        ctx = by_path.get(finding.path)
        disabled = (
            ctx.suppressions.get(finding.line, set()) if ctx is not None else set()
        )
        if finding.rule in disabled:
            used.add((finding.path, finding.line, finding.rule))
        else:
            kept.append(finding)

    for ctx in contexts:
        for lineno in sorted(ctx.suppressions):
            for rule_id in sorted(ctx.suppressions[lineno]):
                if rule_id not in active_ids:
                    if select is None and rule_id not in lint_rules:
                        kept.append(
                            Finding(
                                path=ctx.rel_path,
                                line=lineno,
                                col=1,
                                rule=UNKNOWN_RULE,
                                message=(
                                    f"disable names unknown rule {rule_id!r}; "
                                    f"known rules: {lint_rules.names()}"
                                ),
                            )
                        )
                    continue
                if (ctx.rel_path, lineno, rule_id) not in used:
                    kept.append(
                        Finding(
                            path=ctx.rel_path,
                            line=lineno,
                            col=1,
                            rule=UNUSED_SUPPRESSION,
                            message=(
                                f"suppression of {rule_id!r} silences "
                                "nothing on this line; remove it"
                            ),
                        )
                    )

    kept.sort()
    return LintReport(
        findings=kept, files=len(files), rules=[name for name, _ in rules]
    )
