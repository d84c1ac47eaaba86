"""File discovery and the serial per-file checker pass.

Each discovered module is read, parsed once, and visited by every enabled
checker in registration order; per-line suppressions are applied to that
module's findings before they are collected.  Files are processed in
discovery order (sorted directory walk), so output never depends on hash
order or on the host.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from .checkers import ModuleContext, annotate_parents
from .config import LintConfig
from .findings import Finding
from .registry import all_rules, iter_checkers
from .suppressions import collect_suppressions, is_suppressed

__all__ = ["LintResult", "discover_files", "lint_paths", "lint_source"]

#: Directory names never descended into.  ``corpus`` holds lint fixture
#: modules that violate rules on purpose; their test lints each one under a
#: virtual path (name a file explicitly to lint it from the CLI).
_SKIP_DIRS = {
    ".git", "__pycache__", ".cache", ".mypy_cache", ".ruff_cache",
    ".pytest_cache", ".venv", "venv", "node_modules", "build", "dist",
    "corpus",
}


class LintResult:
    """Findings plus the bookkeeping the CLI needs."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.suppressed = 0
        self.parse_errors: List[Tuple[str, str]] = []
        self.files_checked = 0

    def sorted_findings(self) -> List[Finding]:
        return sorted(self.findings, key=Finding.sort_key)


def discover_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a deterministic list of ``.py`` files."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            found.append(path)
        elif path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(Path(dirpath) / name)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    # De-duplicate while keeping deterministic order.
    seen = set()
    unique = []
    for path in found:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def _relpath(path: Path) -> str:
    try:
        rel = path.resolve().relative_to(Path.cwd())
    except ValueError:
        rel = path
    return rel.as_posix()


def _enabled(config: LintConfig, enabled: Optional[Iterable[str]]) -> Tuple[str, ...]:
    if enabled is None:
        return tuple(config.enabled_rules([r.id for r in all_rules()]))
    return tuple(enabled)


def _check(
    source: str,
    path: str,
    config: LintConfig,
    enabled: Tuple[str, ...],
    result: LintResult,
) -> List[Finding]:
    """Run the checkers on one module and fold the outcome into ``result``."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        result.parse_errors.append(
            (path, f"syntax error: {exc.msg} (line {exc.lineno})")
        )
        return []
    annotate_parents(tree)
    ctx = ModuleContext(path=path, source=source, tree=tree, config=config)
    suppressions = collect_suppressions(source)

    kept: List[Finding] = []
    for checker_cls, active in iter_checkers(enabled):
        checker = checker_cls(ctx, active)
        checker.visit(tree)
        for finding in checker.findings:
            if is_suppressed(suppressions, finding.line, finding.rule):
                result.suppressed += 1
            else:
                kept.append(finding)
    result.findings.extend(kept)
    result.files_checked += 1
    return kept


def lint_source(
    source: str,
    path: str,
    config: Optional[LintConfig] = None,
    enabled: Optional[Iterable[str]] = None,
    result: Optional[LintResult] = None,
) -> List[Finding]:
    """Lint one module given as text; the unit-test entry point.

    ``path`` is virtual: it determines package membership (sim/engine,
    test module) and appears in findings, but is never opened.
    """
    config = config or LintConfig()
    result = result if result is not None else LintResult()
    return _check(source, path, config, _enabled(config, enabled), result)


def lint_paths(
    paths: Iterable[str],
    config: Optional[LintConfig] = None,
    enabled: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint files and directories; returns an aggregate :class:`LintResult`."""
    config = config or LintConfig()
    active = _enabled(config, enabled)
    result = LintResult()
    for path in discover_files(paths):
        relpath = _relpath(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.parse_errors.append((relpath, str(exc)))
            continue
        _check(source, relpath, config, active, result)
    return result
