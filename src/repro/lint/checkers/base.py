"""Shared checker machinery: import resolution, name dotting, scope stack.

Every checker is an :class:`ast.NodeVisitor` over one module.  The runner
annotates each node with a ``.parent`` backlink before visiting, and
:class:`ModuleContext` builds the module's import alias table once, shared
by every checker, so rules can match *resolved* dotted names
(``np.random.seed`` and ``from numpy.random import seed`` both resolve to
``numpy.random.seed``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..config import LintConfig
from ..findings import Finding

__all__ = [
    "Checker",
    "ModuleContext",
    "annotate_parents",
    "dotted_parts",
    "module_name_for",
]

#: Directory/file name markers of test modules: their fixtures deliberately
#: violate rules, so the module-state rules (REP401, REP404) skip them.
_TEST_PARTS = {"tests", "test", "conftest.py"}


def annotate_parents(tree: ast.AST) -> None:
    """Attach a ``.parent`` backlink to every node (root gets ``None``)."""
    tree.parent = None  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def module_name_for(path: str) -> str:
    """Dotted module name for a repo-relative path.

    Everything up to and including a ``src`` component is stripped, so
    ``src/repro/core/manager.py`` -> ``repro.core.manager`` and a fixture
    tree ``fixtures/proj/src/repro/sim/a.py`` -> ``repro.sim.a``.  Paths
    without a ``src`` component keep their full dotted form.
    """
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    # Strip up to the *last* "src" component so nested fixture trees work.
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "src":
            parts = parts[i + 1:]
            break
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


class ModuleContext:
    """Everything a checker needs to know about the module under lint.

    ``imports`` maps local alias -> dotted origin for ``import x [as y]``,
    ``from m import n [as y]`` and relative ``from . import n`` forms; it is
    built once per module and read by every checker.
    """

    def __init__(self, path: str, source: str, tree: ast.Module,
                 config: LintConfig):
        self.path = path  # forward-slash relative path
        self.source = source
        self.tree = tree
        self.config = config
        self.lines = source.splitlines()
        self.in_sim_package = self._in_packages(config.sim_packages)
        self.in_engine_package = self._in_packages(config.engine_packages)
        self.module_name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        self.is_entry_module = self.module_name in config.entry_points
        parts = path.split("/")
        self.is_test = any(p in _TEST_PARTS for p in parts) or (
            parts[-1].startswith("test_") or parts[-1].endswith("_test.py")
        )
        self.imports: Dict[str, str] = _collect_imports(tree)
        self.imports.update(_collect_relative_imports(tree, path))

    def _in_packages(self, packages: Tuple[str, ...]) -> bool:
        haystack = "/" + self.path.strip("/") + "/"
        return any(f"/{pkg.strip('/')}/" in haystack for pkg in packages)

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname is None and "." in alias.name:
                    # ``import numpy.random`` binds ``numpy``.
                    table[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # resolved separately, against the path
                continue
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{module}.{alias.name}"
    return table


def _collect_relative_imports(tree: ast.Module, path: str) -> Dict[str, str]:
    """alias -> dotted origin for ``from . import x`` style imports,
    anchored on the module's own dotted name (derived from its path)."""
    parts = module_name_for(path).split(".")
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        if node.level >= len(parts) + 1:
            continue  # escapes the visible tree; leave unresolved
        base = parts[: len(parts) - node.level]
        if node.module:
            base = base + node.module.split(".")
        for alias in node.names:
            if alias.name == "*":
                continue
            table[alias.asname or alias.name] = ".".join(base + [alias.name])
    return table


class Checker(ast.NodeVisitor):
    """Base class for all rule checkers.

    Subclasses call :meth:`report` with a rule id, the offending node, and a
    message.  ``self.ctx`` carries the module context; ``self.imports`` is
    its shared import alias table.
    """

    def __init__(self, ctx: ModuleContext, active_rules: Tuple[str, ...]):
        self.ctx = ctx
        self.active = frozenset(active_rules)
        self.findings: List[Finding] = []
        self.imports: Dict[str, str] = ctx.imports
        self._func_stack: List[ast.AST] = []

    # -- reporting ----------------------------------------------------------

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        if rule not in self.active:
            return
        self.findings.append(
            Finding(
                rule=rule,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    # -- name resolution ----------------------------------------------------

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolved dotted name of a Name/Attribute chain, or None.

        The chain head is expanded through the import table, so with
        ``import numpy as np`` the expression ``np.random.seed`` resolves to
        ``numpy.random.seed``.
        """
        parts = dotted_parts(node)
        if not parts:
            return None
        head = self.imports.get(parts[0])
        if head is not None:
            parts = head.split(".") + parts[1:]
        return ".".join(parts)

    def call_name(self, call: ast.Call) -> Optional[str]:
        return self.resolve(call.func)

    # -- scope helpers ------------------------------------------------------

    def _walk_function(self, node: ast.AST) -> None:
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _walk_function
    visit_AsyncFunctionDef = _walk_function
    visit_Lambda = _walk_function

    @property
    def current_function(self) -> Optional[ast.AST]:
        return self._func_stack[-1] if self._func_stack else None

    def enclosing_functions(self) -> Iterator[ast.AST]:
        return reversed(self._func_stack)

    def in_entry_point(self, node: ast.AST) -> bool:
        """True inside ``main()``, an entry module, or an
        ``if __name__ == "__main__":`` block."""
        if self.ctx.is_entry_module:
            return True
        for func in self._func_stack:
            name = getattr(func, "name", "")
            if name in self.ctx.config.entry_points:
                return True
        parent = getattr(node, "parent", None)
        while parent is not None:
            if isinstance(parent, ast.If) and _is_name_main_test(parent.test):
                return True
            parent = getattr(parent, "parent", None)
        return False


def _is_name_main_test(test: ast.AST) -> bool:
    if not isinstance(test, ast.Compare):
        return False
    names = [test.left, *test.comparators]
    has_dunder = any(
        isinstance(n, ast.Name) and n.id == "__name__" for n in names
    )
    has_main = any(
        isinstance(n, ast.Constant) and n.value == "__main__" for n in names
    )
    return has_dunder and has_main
