"""Executor-safety rules: the ``map_blocks`` worker-function contract.

Workers may run in forked processes: the payload they receive is a
copy-on-write snapshot, mutations to it (or to closed-over state) are
silently lost on the process backend and silently *shared* on the
serial/thread backends — the exact divergence the parity tests exist to
prevent.  Likewise the :class:`~repro.core.score_cache.ScoreCache` is an
in-parent structure: a worker-side ``store``/``lookup`` would fork the
cache's state per process.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core import Finding, LintRule, ModuleContext, register_rule
from ..visitors import attribute_chain, name_tokens, terminal_name

__all__ = [
    "NonPicklableTaskRule",
    "WorkerCacheAccessRule",
    "WorkerSharedMutationRule",
]

#: Method names that mutate their receiver in place.
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
        "appendleft",
        "extendleft",
    }
)


def _map_blocks_sites(tree: ast.Module) -> List[ast.Call]:
    """Every ``<executor>.map_blocks(fn, items, payload)`` call."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_blocks"
        and node.args
    ]


def _enclosing_functions(
    tree: ast.Module,
) -> Dict[ast.AST, Optional[ast.AST]]:
    """Map every node to its innermost enclosing function def (or None)."""
    owner: Dict[ast.AST, Optional[ast.AST]] = {}

    def visit(node: ast.AST, current: Optional[ast.AST]) -> None:
        owner[node] = current
        inner = (
            node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else current
        )
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, None)
    return owner


@register_rule
class NonPicklableTaskRule(LintRule):
    """Worker functions must be top-level (picklable for fork/spawn)."""

    id = "non-picklable-task"
    invariant = (
        "functions handed to Executor.map_blocks are module-level defs "
        "(picklable across the process-backend boundary), never lambdas "
        "or nested closures"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        owner = None
        for call in _map_blocks_sites(ctx.tree):
            fn = call.args[0]
            if isinstance(fn, ast.Lambda):
                yield ctx.finding(
                    fn,
                    self.id,
                    "lambda passed to map_blocks cannot cross the process "
                    "boundary (not picklable); hoist it to a module-level def",
                )
                continue
            if not isinstance(fn, ast.Name):
                continue
            if owner is None:
                owner = _enclosing_functions(ctx.tree)
            definition = self._local_def(ctx.tree, fn.id)
            if definition is not None and owner.get(definition) is not None:
                yield ctx.finding(
                    fn,
                    self.id,
                    f"{fn.id!r} is defined inside another function; nested "
                    "defs are not picklable for the process backend — hoist "
                    "it to module level",
                )

    @staticmethod
    def _local_def(tree: ast.Module, name: str) -> Optional[ast.AST]:
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == name
            ):
                return node
        return None


@register_rule
class WorkerSharedMutationRule(LintRule):
    """Worker functions must not mutate the shared payload or outer state."""

    id = "worker-shared-mutation"
    invariant = (
        "map_blocks workers treat their payload argument as read-only and "
        "never mutate closed-over or global state (results diverge "
        "between thread and process backends otherwise)"
    )

    def finalize(self, contexts: Sequence[ModuleContext]) -> Iterator[Finding]:
        # Resolve each worker function to its def, cross-module when the
        # name was imported, then audit the def's body.
        defs: Dict[str, List[Tuple[ModuleContext, ast.FunctionDef]]] = {}
        for ctx in contexts:
            for node in ctx.tree.body:
                if isinstance(node, ast.FunctionDef):
                    defs.setdefault(node.name, []).append((ctx, node))

        audited: Set[int] = set()
        for ctx in contexts:
            for call in _map_blocks_sites(ctx.tree):
                fn = call.args[0]
                if not isinstance(fn, ast.Name):
                    continue
                for def_ctx, definition in defs.get(fn.id, ()):
                    if id(definition) in audited:
                        continue
                    audited.add(id(definition))
                    yield from self._audit_worker(def_ctx, definition)

    def _audit_worker(
        self, ctx: ModuleContext, definition: ast.FunctionDef
    ) -> Iterator[Finding]:
        params = {arg.arg for arg in definition.args.args}
        params.update(arg.arg for arg in definition.args.posonlyargs)
        params.update(arg.arg for arg in definition.args.kwonlyargs)
        payload = definition.args.args[0].arg if definition.args.args else None
        local_names = self._local_bindings(definition) | params

        for node in ast.walk(definition):
            if isinstance(node, ast.Global):
                yield ctx.finding(
                    node,
                    self.id,
                    f"worker {definition.name!r} declares "
                    f"'global {', '.join(node.names)}': module state is not "
                    "shared back from process workers",
                )
                continue
            root = self._mutated_root(node)
            if root is None:
                continue
            if root == payload:
                yield ctx.finding(
                    node,
                    self.id,
                    f"worker {definition.name!r} mutates its shared payload "
                    f"argument {root!r}; payloads are read-only snapshots "
                    "(copy-on-write under fork) — return new data instead",
                )
            elif root not in local_names and not hasattr(builtins, root):
                yield ctx.finding(
                    node,
                    self.id,
                    f"worker {definition.name!r} mutates non-local name "
                    f"{root!r}; workers must not write through closures or "
                    "module globals",
                )

    @classmethod
    def _local_bindings(cls, definition: ast.FunctionDef) -> Set[str]:
        bound: Set[str] = set()
        for node in ast.walk(definition):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    bound.update(cls._binding_names(target))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bound.update(cls._binding_names(node.target))
            elif isinstance(node, ast.withitem) and node.optional_vars:
                bound.update(cls._binding_names(node.optional_vars))
            elif isinstance(node, ast.comprehension):
                bound.update(cls._binding_names(node.target))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bound.add(node.name)
        return bound

    @classmethod
    def _binding_names(cls, target: ast.expr) -> Set[str]:
        """Names a target *binds* — ``x[0] = ...`` binds nothing new."""
        if isinstance(target, ast.Name):
            return {target.id}
        if isinstance(target, (ast.Tuple, ast.List)):
            names: Set[str] = set()
            for element in target.elts:
                names.update(cls._binding_names(element))
            return names
        if isinstance(target, ast.Starred):
            return cls._binding_names(target.value)
        return set()

    @staticmethod
    def _mutated_root(node: ast.AST) -> Optional[str]:
        """Root name a statement/call writes *through* (not rebinding)."""
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
            root, _ = attribute_chain(node.func.value)
            return root
        for target in targets:
            # Plain name rebinding is local; only attribute/subscript
            # stores reach through to shared structure.
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                root, _ = attribute_chain(target)
                return root
        return None


#: ScoreCache mutation/lookup entry points, and the pair table's trust
#: check (a read of the same records a lookup reads).
_CACHE_METHODS = frozenset(
    {
        "store",
        "store_batch",
        "lookup",
        "lookup_batch",
        "_holds",
        "invalidate_pairs",
        "drop_entities",
        "clear",
        "restore",
    }
)

#: Modules allowed to touch a ScoreCache (in-parent scoring paths only).
_CACHE_MODULE_SUFFIXES = (
    "repro/core/score_cache.py",
    "repro/core/similarity.py",
    "repro/core/streaming.py",
)

_CACHE_TOKENS = frozenset({"cache"})


@register_rule
class WorkerCacheAccessRule(LintRule):
    """ScoreCache store/lookup only from designated in-parent modules."""

    id = "worker-cache-access"
    invariant = (
        "ScoreCache store/lookup happens only in the in-parent scoring "
        "modules (core/score_cache, core/similarity, core/streaming) — "
        "a worker-side write would fork cache state per process"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.rel_path.endswith(_CACHE_MODULE_SUFFIXES):
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CACHE_METHODS
            ):
                continue
            receiver = terminal_name(node.func.value)
            if name_tokens(receiver) & _CACHE_TOKENS:
                yield ctx.finding(
                    node,
                    self.id,
                    f"ScoreCache.{node.func.attr} called outside the "
                    "in-parent scoring modules; cache state must never be "
                    "touched from worker-side code",
                )
