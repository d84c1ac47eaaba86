"""Lint configuration: defaults plus ``[tool.repro-lint]`` in pyproject.toml.

On Python >= 3.11 the table is read with :mod:`tomllib`; on older
interpreters (no ``tomllib``, and the container policy forbids new
dependencies) pyproject configuration is skipped and the built-in defaults
apply — the CLI flags still work everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on <= 3.10
    tomllib = None  # type: ignore[assignment]

__all__ = ["LintConfig", "load_config", "find_pyproject"]

#: Packages whose sources are simulation decision paths: wall-clock reads,
#: set iteration, and constant yields are hard errors here.
DEFAULT_SIM_PACKAGES: Tuple[str, ...] = (
    "repro/des",
    "repro/sim",
    "repro/wireless",
    "repro/network",
    "repro/core",
    "repro/traffic",
    "repro/mobility",
)

#: Packages counting as engine/runtime code for the hygiene family.
DEFAULT_ENGINE_PACKAGES: Tuple[str, ...] = (
    "repro/des",
    "repro/runtime",
    "repro/sim",
)

#: Function/module names in which ``random.seed`` is legitimate.
DEFAULT_ENTRY_POINTS: Tuple[str, ...] = ("main", "__main__")

#: Attributes known (project-wide) to be ``set``-typed; iterating them
#: unsorted is hash-order nondeterminism.  Extendable from pyproject.
DEFAULT_SET_ATTRIBUTES: Tuple[str, ...] = (
    "neighbors",
    "occupants",
    "bottleneck_set",
)


@dataclass(frozen=True)
class LintConfig:
    """Effective configuration for one lint run."""

    select: Optional[Tuple[str, ...]] = None  # None means "all registered"
    ignore: Tuple[str, ...] = ()
    sim_packages: Tuple[str, ...] = DEFAULT_SIM_PACKAGES
    engine_packages: Tuple[str, ...] = DEFAULT_ENGINE_PACKAGES
    entry_points: Tuple[str, ...] = DEFAULT_ENTRY_POINTS
    set_attributes: Tuple[str, ...] = DEFAULT_SET_ATTRIBUTES

    def enabled_rules(self, registered: Iterable[str]) -> List[str]:
        """Resolve select/ignore against the registered rule ids."""
        ids = sorted(registered)
        chosen = ids if self.select is None else [r for r in ids if r in self.select]
        return [r for r in chosen if r not in self.ignore]

    def with_overrides(
        self,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ) -> "LintConfig":
        cfg = self
        if select:
            cfg = replace(cfg, select=tuple(select))
        if ignore:
            cfg = replace(cfg, ignore=tuple(cfg.ignore) + tuple(ignore))
        return cfg


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    start = start.resolve()
    for candidate in [start, *start.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _as_tuple(value: object, key: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"[tool.repro-lint] {key} must be a list of strings")
    return tuple(value)


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig` from the nearest pyproject.toml.

    Unknown keys raise :class:`ValueError` (a typo in config should fail the
    run loudly, not silently lint with defaults).
    """
    defaults = LintConfig()
    if tomllib is None:
        return defaults
    pyproject = find_pyproject(start or Path.cwd())
    if pyproject is None:
        return defaults
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("repro-lint")
    if table is None:
        return defaults

    known = {
        "select", "ignore", "sim-packages", "engine-packages",
        "entry-points", "set-attributes",
    }
    unknown = set(table) - known
    if unknown:
        raise ValueError(
            f"[tool.repro-lint] unknown keys: {', '.join(sorted(unknown))}"
        )

    kwargs: dict = {}
    if "select" in table:
        kwargs["select"] = _as_tuple(table["select"], "select")
    if "ignore" in table:
        kwargs["ignore"] = _as_tuple(table["ignore"], "ignore")
    if "sim-packages" in table:
        kwargs["sim_packages"] = _as_tuple(table["sim-packages"], "sim-packages")
    if "engine-packages" in table:
        kwargs["engine_packages"] = _as_tuple(
            table["engine-packages"], "engine-packages")
    if "entry-points" in table:
        kwargs["entry_points"] = _as_tuple(table["entry-points"], "entry-points")
    if "set-attributes" in table:
        kwargs["set_attributes"] = _as_tuple(
            table["set-attributes"], "set-attributes")
    return replace(defaults, **kwargs)
