"""Persistence rules: snapshot bytes reach disk only through ``repro.store``.

The crash-restart guarantee — a mid-write kill leaves the previous
snapshot fully intact — holds because every byte under a snapshot
directory is produced by the ``repro.store`` writers: tmp-dir staging,
fsync, a digest manifest written last, ``os.replace`` promotion.  A
direct ``open(..., "w")`` or ``np.save`` into a snapshot path anywhere
else bypasses all of that and can leave a half-written file that a
restart will then trust (the serve-layer races pattern, applied to
persistence).

The atomic-write *mechanism* lives there too, once
(``repro.store.durable``): ``os.replace``, ``os.fsync`` and
``tempfile.mkstemp`` calls outside ``repro/store/`` are findings
whatever path they touch, so a second hand-rolled atomic writer cannot
come back.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Set

from ..core import Finding, LintRule, ModuleContext, register_rule
from ..visitors import ImportMap, name_tokens, resolved_call_name

__all__ = ["SnapshotIoRule"]

_SNAPSHOT_TOKENS = frozenset({"snapshot", "snap"})

#: The blessed writer modules (matched on ``rel_path`` substring so a
#: fixture copied elsewhere never inherits the privilege).
_STORE_MODULE_MARKER = "repro/store/"

#: Any of these characters in an ``open`` mode string means a write.
_WRITE_MODE_CHARS = frozenset("wax+")

#: ``module.function`` serialisers whose *first* argument is the target.
_PATH_FIRST_WRITERS = frozenset(
    {"numpy.save", "numpy.savez", "numpy.savez_compressed", "numpy.savetxt"}
)
#: Serialisers whose *second* argument is the destination file.
_FILE_SECOND_WRITERS = frozenset({"pickle.dump", "json.dump"})
#: ``Path`` methods that write in place.
_PATH_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
#: Building blocks of a hand-rolled atomic write; ``repro.store`` only.
_ATOMIC_WRITE_CALLS = frozenset({"os.replace", "os.fsync", "tempfile.mkstemp"})

_STRING_TOKEN_RE = re.compile(r"[^a-z0-9]+")


def _expr_tokens(expr: ast.expr) -> Set[str]:
    """Every identifier/string token reachable in a path expression.

    Walks the whole expression so joined paths (``snapshot_dir / "x"``,
    ``os.path.join(root, "snap-000001")``) are seen through both their
    variable names and any literal path components.
    """
    tokens: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            tokens |= name_tokens(node.id)
        elif isinstance(node, ast.Attribute):
            tokens |= name_tokens(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            tokens.update(
                part
                for part in _STRING_TOKEN_RE.split(node.value.lower())
                if part
            )
    return tokens


def _is_snapshot_path(expr: ast.expr) -> bool:
    return bool(_expr_tokens(expr) & _SNAPSHOT_TOKENS)


def _write_mode(mode: Optional[ast.expr]) -> bool:
    """True only for a *literal* mode string containing a write flag."""
    return (
        mode is not None
        and isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and bool(set(mode.value) & _WRITE_MODE_CHARS)
    )


def _mode_argument(node: ast.Call, position: int) -> Optional[ast.expr]:
    if len(node.args) > position:
        return node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


@register_rule
class SnapshotIoRule(LintRule):
    """Snapshot directories are written only by ``repro.store``."""

    id = "snapshot-io"
    invariant = (
        "bytes land in a snapshot directory only via the repro.store "
        "writers (tmp-dir staging, digest manifest, os.replace promote) "
        "— a direct open()/np.save write can survive a crash half-done "
        "and be trusted on restart; os.replace / os.fsync / mkstemp are "
        "called only there, so the atomic file write exists once"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _STORE_MODULE_MARKER in ctx.rel_path:
            return
        imports = ImportMap.from_tree(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            what = self._snapshot_write(node, imports)
            if what is not None:
                yield ctx.finding(
                    node,
                    self.id,
                    f"{what} outside repro.store; route it through "
                    "write_snapshot / ChunkedColumnStore so a mid-write "
                    "crash cannot leave a half-written file a restart "
                    "will trust",
                )

    @staticmethod
    def _snapshot_write(node: ast.Call, imports: ImportMap) -> Optional[str]:
        func = node.func
        # open(snapshot_path, "w") / builtins.
        if isinstance(func, ast.Name) and func.id == "open":
            if (
                node.args
                and _write_mode(_mode_argument(node, 1))
                and _is_snapshot_path(node.args[0])
            ):
                return "open() for writing into a snapshot path"
            return None
        resolved = resolved_call_name(func, imports)
        if resolved in _ATOMIC_WRITE_CALLS:
            return f"{resolved}() (a hand-rolled atomic write)"
        if resolved in _PATH_FIRST_WRITERS and node.args:
            if _is_snapshot_path(node.args[0]):
                return f"{resolved}() into a snapshot path"
            return None
        if resolved in _FILE_SECOND_WRITERS and len(node.args) >= 2:
            if _is_snapshot_path(node.args[1]):
                return f"{resolved}() into a snapshot path"
            return None
        if isinstance(func, ast.Attribute):
            # snap_path.write_text(...) / snap_path.open("w")
            if func.attr in _PATH_WRITE_METHODS and _is_snapshot_path(
                func.value
            ):
                return f".{func.attr}() on a snapshot path"
            if (
                func.attr == "open"
                and _write_mode(_mode_argument(node, 0))
                and _is_snapshot_path(func.value)
            ):
                return ".open() for writing on a snapshot path"
        return None
