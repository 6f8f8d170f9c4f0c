"""Registry-hygiene rules: unique names, exported plugins, config knobs.

The pipeline's extensibility story is its registries; these rules keep
them coherent: a plugin name registered twice (without ``replace=True``)
would make behaviour import-order dependent, a public plugin missing
from ``__all__`` is invisible to the api-surface snapshot, and a
registry with no :class:`~repro.pipeline.config.LinkageConfig` knob is
unreachable from configuration.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core import Finding, LintRule, ModuleContext, register_rule
from ..visitors import terminal_name

__all__ = [
    "REGISTER_HELPERS",
    "RegistryConfigKnobRule",
    "RegistryDuplicateRule",
    "RegistryExportRule",
]

#: Helper decorators that wrap ``<registry>.register(name)`` — maps the
#: helper's name to the registry variable it feeds.
REGISTER_HELPERS: Dict[str, str] = {"register_scenario": "scenarios"}

_CONFIG_CLASS = "LinkageConfig"

#: Where ``LinkageConfig`` is declared — parsed (never imported) when the
#: lint pass does not itself cover it, e.g. over ``tools`` alone.
_CONFIG_SOURCE = (
    Path(__file__).resolve().parents[3] / "src" / "repro" / "pipeline" / "config.py"
)


@dataclass
class _Registration:
    """One observed ``register(...)`` site."""

    registry: str
    name: Optional[str]  # literal plugin name, None when dynamic
    symbol: Optional[str]  # registered def/class name, None when unknown
    replace: bool
    ctx: ModuleContext
    node: ast.AST


def _literal_str(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


def _register_call(call: ast.Call) -> Optional[Tuple[str, Optional[str], bool]]:
    """Decode ``<registry>.register("name", replace=...)`` calls."""
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "register"
        and call.args
    ):
        registry = terminal_name(call.func.value)
        if registry is None:
            return None
        replace = any(
            keyword.arg == "replace"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in call.keywords
        )
        return registry, _literal_str(call.args[0]), replace
    if (
        isinstance(call.func, ast.Name)
        and call.func.id in REGISTER_HELPERS
        and call.args
    ):
        replace = any(
            keyword.arg == "replace"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in call.keywords
        )
        return (
            REGISTER_HELPERS[call.func.id],
            _literal_str(call.args[0]),
            replace,
        )
    return None


def _collect_registrations(ctx: ModuleContext) -> List[_Registration]:
    found: List[_Registration] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                decoded = _register_call(decorator)
                if decoded is None:
                    continue
                registry, name, replace = decoded
                found.append(
                    _Registration(
                        registry=registry,
                        name=name,
                        symbol=node.name,
                        replace=replace,
                        ctx=ctx,
                        node=decorator,
                    )
                )
        elif isinstance(node, ast.Call):
            # Call style: ``reg.register("name")(symbol)``.
            if not isinstance(node.func, ast.Call):
                continue
            decoded = _register_call(node.func)
            if decoded is None:
                continue
            registry, name, replace = decoded
            symbol = (
                node.args[0].id
                if node.args and isinstance(node.args[0], ast.Name)
                else None
            )
            found.append(
                _Registration(
                    registry=registry,
                    name=name,
                    symbol=symbol,
                    replace=replace,
                    ctx=ctx,
                    node=node,
                )
            )
    return found


def _registry_instantiations(
    ctx: ModuleContext,
) -> List[Tuple[str, ast.AST]]:
    """``var = Registry(...)`` statements (annotated or plain)."""
    found: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(ctx.tree):
        value: Optional[ast.expr] = None
        target: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and terminal_name(value.func) == "Registry"
        ):
            found.append((target.id, node))
    return found


def _module_all(tree: ast.Module) -> Optional[Set[str]]:
    """Names in ``__all__``, or ``None`` when the module declares none."""
    names: Optional[Set[str]] = None
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if names is None:
                    names = set()
                value = node.value
                if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
                    for element in value.elts:
                        literal = _literal_str(element)
                        if literal is not None:
                            names.add(literal)
    return names


def _top_level_defs(tree: ast.Module) -> Set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _imported_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


@register_rule
class RegistryDuplicateRule(LintRule):
    """Every plugin name is registered at most once per registry."""

    id = "registry-duplicate"
    invariant = (
        "each literal plugin name is registered once per registry "
        "(re-registration without replace=True is import-order roulette)"
    )

    def finalize(self, contexts: Sequence[ModuleContext]) -> Iterator[Finding]:
        first_seen: Dict[Tuple[str, str], _Registration] = {}
        for ctx in contexts:
            for registration in _collect_registrations(ctx):
                if registration.name is None or registration.replace:
                    continue
                key = (registration.registry, registration.name)
                earlier = first_seen.get(key)
                if earlier is None:
                    first_seen[key] = registration
                    continue
                yield registration.ctx.finding(
                    registration.node,
                    self.id,
                    f"plugin {registration.name!r} is already registered in "
                    f"{registration.registry!r} at "
                    f"{earlier.ctx.rel_path}:{earlier.node.lineno}; pick a "
                    "unique name or pass replace=True deliberately",
                )


@register_rule
class RegistryExportRule(LintRule):
    """Public registered plugins are exported via ``__all__``."""

    id = "registry-export"
    invariant = (
        "every public (non-underscore) registered plugin appears in its "
        "defining module's __all__ so the api-surface snapshot sees it"
    )

    def finalize(self, contexts: Sequence[ModuleContext]) -> Iterator[Finding]:
        by_def: Dict[str, List[ModuleContext]] = {}
        for ctx in contexts:
            for name in _top_level_defs(ctx.tree):
                by_def.setdefault(name, []).append(ctx)

        for ctx in contexts:
            for registration in _collect_registrations(ctx):
                symbol = registration.symbol
                if symbol is None or symbol.startswith("_"):
                    continue  # private plugins are named by the registry only
                defining = self._defining_context(ctx, symbol, by_def)
                if defining is None:
                    continue  # defined outside the linted tree
                exported = _module_all(defining.tree)
                if exported is None:
                    yield registration.ctx.finding(
                        registration.node,
                        self.id,
                        f"plugin {symbol!r} is registered but its defining "
                        f"module {defining.rel_path} declares no __all__",
                    )
                elif symbol not in exported:
                    yield registration.ctx.finding(
                        registration.node,
                        self.id,
                        f"registered plugin {symbol!r} is missing from "
                        f"__all__ of {defining.rel_path}; export it or make "
                        "it private (leading underscore)",
                    )

    @staticmethod
    def _defining_context(
        ctx: ModuleContext,
        symbol: str,
        by_def: Dict[str, List[ModuleContext]],
    ) -> Optional[ModuleContext]:
        if symbol in _top_level_defs(ctx.tree):
            return ctx
        if symbol in _imported_names(ctx.tree):
            candidates = by_def.get(symbol, [])
            if len(candidates) == 1:
                return candidates[0]
        return None


def _registry_config_fields(tree: ast.Module) -> Optional[Dict[str, str]]:
    """Registry variable -> the ``LinkageConfig`` field that selects from
    it, read off the ``registry=<variable>`` keyword of the class's field
    declarations (see :mod:`repro.knobs`); ``None`` when ``tree`` does not
    declare the class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == _CONFIG_CLASS:
            return {
                keyword.value.id: item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and isinstance(item.value, ast.Call)
                for keyword in item.value.keywords
                if keyword.arg == "registry" and isinstance(keyword.value, ast.Name)
            }
    return None


@register_rule
class RegistryConfigKnobRule(LintRule):
    """Every registry is reachable from configuration (or declared not)."""

    id = "registry-config-knob"
    invariant = (
        "each Registry(...) instance is the registry= of a LinkageConfig "
        "field declaration (which validates the knob against it) or "
        "carries a scoped disable naming its non-config selection mechanism"
    )

    def finalize(self, contexts: Sequence[ModuleContext]) -> Iterator[Finding]:
        declared = (_registry_config_fields(ctx.tree) for ctx in contexts)
        fields = next((found for found in declared if found is not None), None)
        if fields is None:
            installed = ast.parse(_CONFIG_SOURCE.read_text())
            fields = _registry_config_fields(installed) or {}
        for ctx in contexts:
            for var, node in _registry_instantiations(ctx):
                if var not in fields:
                    yield ctx.finding(
                        node,
                        self.id,
                        f"registry {var!r} is the registry= of no "
                        f"{_CONFIG_CLASS} field declaration; declare a knob "
                        "for it or disable this rule here naming the "
                        "mechanism that selects from it",
                    )
