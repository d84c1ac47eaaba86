"""REP401, REP404 — state that outlives one replication.

The experiment runtime keeps long-lived worker processes, each running many
replications, and re-imports every module once per worker.  Anything created
at import time or mutated at module/class level is therefore shared by all
replications a process runs, and differs between processes: per-seed
results start to depend on scheduling.  Both rules look at one module; test
modules are skipped, since their fixtures violate the rules on purpose.

REP401 flags a *seeded* RNG created at import time (module or class scope)
or as a default argument.  REP404 flags a function or class registered in
the same module (``@register*`` / ``register*(obj)``) whose code mutates
module-level state, and class attributes mutated through the class name
(``Cell.registry.append(self)``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..registry import Rule, register
from .base import Checker, dotted_parts

__all__ = ["ModuleRngChecker", "SharedStateChecker"]

REP401 = Rule(
    "REP401",
    "rng-escape",
    "a seeded RNG is created at module scope or as a default argument; it "
    "is evaluated once at import, so every replication in the process "
    "shares its stream",
)
REP404 = Rule(
    "REP404",
    "unserialized-plugin-state",
    "a plugin registered in this module mutates module state, or a class "
    "attribute is mutated through the class name; long-lived workers carry "
    "that state across replications and each process holds its own copy",
)

#: Seeded-RNG constructors (called with a seed they return a private stream).
_RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
})

#: Methods that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "add", "update", "setdefault", "extend", "insert", "pop",
    "remove", "discard", "clear", "popitem",
})

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _import_time_site(node: ast.AST) -> Optional[str]:
    """Where an expression evaluated at import time sits, or None when it
    runs inside a function body."""
    parent = getattr(node, "parent", None)
    while parent is not None:
        if isinstance(parent, ast.arguments):
            owner = getattr(parent, "parent", None)
            name = getattr(owner, "name", "<lambda>")
            return f"as a default argument of {name}()"
        if isinstance(parent, (*_FUNCTIONS, ast.Lambda)):
            return None
        parent = getattr(parent, "parent", None)
    return "at module scope"


@register(REP401)
class ModuleRngChecker(Checker):
    """A seeded RNG created at import time is shared by every replication."""

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.is_test and (node.args or node.keywords):
            name = self.call_name(node)
            if name in _RNG_CONSTRUCTORS:
                site = _import_time_site(node)
                if site is not None:
                    self.report(
                        "REP401", node,
                        f"seeded RNG {name}(...) created {site}; it is "
                        "evaluated once at import, so replications share "
                        "its stream — build it from the replication's seed",
                    )
        self.generic_visit(node)


def _local_names(func: ast.AST) -> Set[str]:
    """Parameters and names a function binds (shadowing module names)."""
    args = func.args  # type: ignore[attr-defined]
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _receivers(node: ast.AST, attributes: bool = False) -> Iterator[ast.expr]:
    """Expressions ``node`` mutates in place: ``x.append(..)``-style calls
    and ``x[k] = ..`` stores; with ``attributes``, also the ``x.a`` of
    ``x.a = ..`` stores."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
    ):
        yield node.func.value
    elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets = (
            [node.target] if isinstance(node, ast.AugAssign) else node.targets
        )
        for target in targets:
            if isinstance(target, ast.Subscript):
                yield target.value
            elif attributes and isinstance(target, ast.Attribute):
                yield target


def _enclosing_function(node: ast.AST) -> Optional[ast.FunctionDef]:
    parent = getattr(node, "parent", None)
    while parent is not None and not isinstance(parent, _FUNCTIONS):
        parent = getattr(parent, "parent", None)
    return parent  # type: ignore[return-value]


@register(REP404)
class SharedStateChecker(Checker):
    """Registered plugins and class-name mutations of shared state."""

    def visit_Module(self, node: ast.Module) -> None:
        if self.ctx.is_test:
            return
        defs = {
            n.name: n for n in node.body
            if isinstance(n, (*_FUNCTIONS, ast.ClassDef))
        }
        module_names = {
            leaf.id
            for stmt in node.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for leaf in ast.walk(target)
            if isinstance(leaf, ast.Name)
        }
        for plugin in self._registered(node, defs):
            for qualname, func in _members(defs[plugin]):
                self._check_plugin(plugin, qualname, func, module_names)
        classes = {
            name for name, n in defs.items() if isinstance(n, ast.ClassDef)
        }
        if classes:
            self._check_class_state(node, classes)

    # -- registered plugins ---------------------------------------------------

    def _registered(self, tree: ast.Module, defs: Dict[str, ast.AST]) -> List[str]:
        """Names of same-module defs handed to a ``register*`` callable."""
        found: Set[str] = set()
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and any(
                _is_register(d.func if isinstance(d, ast.Call) else d)
                for d in node.decorator_list
            ):
                found.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_register(node.func):
                found.update(
                    arg.id for arg in node.args
                    if isinstance(arg, ast.Name) and arg.id in defs
                )
        return sorted(found)

    def _check_plugin(self, plugin: str, qualname: str, func: ast.AST,
                      module_names: Set[str]) -> None:
        local = _local_names(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name in local:
                        self.report(
                            "REP404", node,
                            f"registered plugin {plugin!r} rebinds module "
                            f"global {name!r} in {qualname}; plugin state "
                            "must live on the instance (or flow through "
                            "return values)",
                        )
            for receiver in _receivers(node):
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in module_names
                    and receiver.id not in local
                ):
                    self.report(
                        "REP404", node,
                        f"registered plugin {plugin!r} mutates module-level "
                        f"{receiver.id!r} in {qualname}; each worker process "
                        "keeps its own copy across replications",
                    )

    # -- class attributes mutated through the class name ----------------------

    def _check_class_state(self, tree: ast.Module, classes: Set[str]) -> None:
        for site in ast.walk(tree):
            for receiver in _receivers(site, attributes=True):
                parts = dotted_parts(receiver)
                if not parts or len(parts) != 2 or parts[0] not in classes:
                    continue
                # Import-time class setup runs once per process; only
                # mutations at run time leak between replications.
                func = _enclosing_function(site)
                if func is None or parts[0] in _local_names(func):
                    continue
                self.report(
                    "REP404", site,
                    f"class attribute {'.'.join(parts)} mutated through the "
                    f"class name in {func.name}(); every instance and "
                    "replication in the process shares it — keep the state "
                    "on an instance",
                )


def _is_register(func: ast.AST) -> bool:
    parts = dotted_parts(func)
    return parts is not None and parts[-1].startswith("register")


def _members(node: ast.AST) -> List[Tuple[str, ast.AST]]:
    """``(qualname, function)`` pairs a registered def contributes."""
    if isinstance(node, ast.ClassDef):
        return [
            (f"{node.name}.{n.name}", n) for n in node.body
            if isinstance(n, _FUNCTIONS)
        ]
    return [(node.name, node)]  # type: ignore[attr-defined]
