"""Serve-layer race rules: snapshot immutability, service write contexts.

The online layer publishes immutable :class:`~repro.serve.snapshot.LinkSnapshot`
objects and swaps a single reference; readers never lock.  That only
holds if nothing ever mutates a published snapshot, and if
:class:`~repro.serve.service.LinkageService` internal state is written
exclusively from its event-loop coroutines or the small set of sync
methods the pump thread is documented to call.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core import Finding, LintRule, ModuleContext, register_rule
from ..visitors import attribute_chain, name_tokens, terminal_name

__all__ = ["ServiceContextRule", "SnapshotMutationRule"]

_SNAPSHOT_TOKENS = frozenset({"snapshot", "snap"})
_SNAPSHOT_PAYLOAD_ATTRS = frozenset({"links", "link_scores", "scores"})
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)


def _is_snapshot_expr(expr: ast.expr) -> bool:
    """Heuristic: does this expression denote a LinkSnapshot value?"""
    return bool(name_tokens(terminal_name(expr)) & _SNAPSHOT_TOKENS)


@register_rule
class SnapshotMutationRule(LintRule):
    """Published ``LinkSnapshot`` objects are never mutated."""

    id = "snapshot-mutation"
    invariant = (
        "a LinkSnapshot (and its links/scores mappings) is immutable "
        "after construction — publication is a reference swap, readers "
        "never see partial state"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            yield from self._check_stores(ctx, node)
            yield from self._check_calls(ctx, node)

    def _check_stores(self, ctx: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if isinstance(target, ast.Attribute) and _is_snapshot_expr(target.value):
                yield ctx.finding(
                    node,
                    self.id,
                    f"assigning attribute {target.attr!r} on a snapshot "
                    "value mutates published state; build a new LinkSnapshot "
                    "and swap the reference instead",
                )
            elif isinstance(target, ast.Subscript) and self._is_snapshot_payload(
                target.value
            ):
                yield ctx.finding(
                    node,
                    self.id,
                    "writing into a snapshot's links/scores mapping races "
                    "concurrent readers; snapshots are immutable once built",
                )

    def _check_calls(self, ctx: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and self._is_snapshot_payload(node.func.value)
        ):
            yield ctx.finding(
                node,
                self.id,
                f"{node.func.attr}() on a snapshot's links/scores mapping "
                "mutates published state; snapshots are immutable once built",
            )
            return
        # object.__setattr__(snapshot, ...) — the frozen-dataclass escape
        # hatch is reserved for __post_init__ (whose receiver is `self`).
        parts_ok = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        )
        if parts_ok and node.args and _is_snapshot_expr(node.args[0]):
            yield ctx.finding(
                node,
                self.id,
                "object.__setattr__ on a snapshot bypasses the frozen "
                "dataclass; snapshots must not change after construction",
            )

    @staticmethod
    def _is_snapshot_payload(expr: ast.expr) -> bool:
        """``<snapshot-ish>.links`` / ``.scores`` / ``.link_scores``."""
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr in _SNAPSHOT_PAYLOAD_ATTRS
            and _is_snapshot_expr(expr.value)
        )


#: The annotation table: per service class, which ``self.*`` attributes
#: are loop-owned state, and which *sync* methods are blessed writers
#: (constructor plus the pump-thread callbacks documented in
#: ``src/repro/serve/service.py``).  Async methods always run on the
#: event loop and may write freely.
SERVICE_STATE_TABLE: Dict[str, Dict[str, Set[str]]] = {
    "LinkageService": {
        "state": {
            "_queue",
            "_pump_task",
            "_pool",
            "_pending_by_source",
            "_source_waiters",
            "_watermark",
            "_pending_watermark",
            "_started_at",
            "_snapshot",
            "last_error",
            "counters",
        },
        "sync_writers": {
            "__init__",
            "_publish",
            "_record_query",
            "_release_source_slot",
        },
    }
}


@register_rule
class ServiceContextRule(LintRule):
    """Service internal state written only from declared contexts."""

    id = "service-context"
    invariant = (
        "LinkageService loop-owned state is written only from async "
        "methods or the declared sync writers (__init__/_publish/"
        "_record_query/_release_source_slot) per the annotation table"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            table = SERVICE_STATE_TABLE.get(node.name)
            if table is None:
                continue
            yield from self._check_class(ctx, node, table)

    def _check_class(
        self,
        ctx: ModuleContext,
        cls: ast.ClassDef,
        table: Dict[str, Set[str]],
    ) -> Iterator[Finding]:
        state = table["state"]
        sync_writers = table["sync_writers"]
        for method in cls.body:
            if isinstance(method, ast.AsyncFunctionDef):
                continue  # event-loop context: writes are single-threaded
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name in sync_writers:
                continue
            for written in self._state_writes(method, state):
                node, attr = written
                yield ctx.finding(
                    node,
                    self.id,
                    f"sync method {cls.name}.{method.name} writes loop-owned "
                    f"state 'self.{attr}'; only async methods or the "
                    f"declared sync writers ({sorted(sync_writers)}) may — "
                    "extend the annotation table if this context is safe",
                )

    def _state_writes(
        self, method: ast.FunctionDef, state: Set[str]
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(method):
            attr = self._written_state_attr(node, state)
            if attr is not None:
                yield node, attr

    @staticmethod
    def _written_state_attr(node: ast.AST, state: Set[str]) -> Optional[str]:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            root, path = attribute_chain(node.func.value)
            if root == "self" and path and path[0] in state:
                return path[0]
            return None
        for target in targets:
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            root, path = attribute_chain(target)
            if root == "self" and path and path[0] in state:
                return path[0]
        return None
