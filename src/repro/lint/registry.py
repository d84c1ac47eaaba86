"""Rule metadata and the plugin-style checker registry.

A checker module declares its rules and registers one checker class per
family::

    REP999 = Rule("REP999", "no-frobnication", "frobnication is nondeterministic")

    @register(REP999)
    class FrobnicationChecker(Checker):
        ...

Registration is import-time; :mod:`repro.lint.checkers` imports every
built-in checker module so ``all_rules()`` is complete after a plain
``import repro.lint``.  Third-party checkers can call :func:`register`
themselves before invoking :func:`repro.lint.lint_paths`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

__all__ = ["Rule", "register", "all_rules", "get_rule", "iter_checkers"]


@dataclass(frozen=True)
class Rule:
    """Identity and one-line rationale of a lint rule."""

    id: str
    name: str
    summary: str


#: rule id -> Rule
_RULES: Dict[str, Rule] = {}
#: checker class -> tuple of rule ids it may emit
_CHECKERS: Dict[type, Tuple[str, ...]] = {}


def register(*rules: Rule):
    """Class decorator registering ``rules`` as emitted by the checker."""

    def decorate(checker_cls: type) -> type:
        for rule in rules:
            existing = _RULES.get(rule.id)
            if existing is not None and existing != rule:
                raise ValueError(f"conflicting registration for rule {rule.id}")
            _RULES[rule.id] = rule
        _CHECKERS[checker_cls] = tuple(rule.id for rule in rules)
        return checker_cls

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    return [_RULES[rid] for rid in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    try:
        return _RULES[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule id {rule_id!r}") from None


def iter_checkers(enabled: Iterable[str]) -> Iterator[Tuple[type, Tuple[str, ...]]]:
    """Yield ``(checker_cls, active_rule_ids)`` for checkers with at least
    one rule in ``enabled``; checkers whose every rule is disabled are
    skipped entirely (they never even visit the tree)."""
    want = set(enabled)
    for cls, ids in _CHECKERS.items():
        active = tuple(rid for rid in ids if rid in want)
        if active:
            yield cls, active

