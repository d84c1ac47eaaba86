"""REP0xx — seeded-RNG discipline and hash-order determinism.

The paper's per-seed reproducibility (and PR 1's serial == parallel
bit-identity contract) dies the moment simulation behaviour reads from the
process-global RNG, the wall clock, or hash-randomized ``set`` iteration
order.  These rules pin all randomness to explicitly seeded generator
objects and all set-to-sequence conversions to ``sorted(...)``.

REP304 rides along here (it shares the wall-clock call tables and the
scope heuristic): engine/observability code may *record* wall-clock
stamps but must never compute durations from them.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from ..registry import Rule, register
from .base import Checker

__all__ = [
    "GlobalRandomChecker",
    "WallClockChecker",
    "SetIterationChecker",
    "WallClockDurationChecker",
]

REP001 = Rule(
    "REP001",
    "no-global-random",
    "call into the process-global (or OS-entropy) RNG; use an explicitly "
    "seeded random.Random(seed) / numpy default_rng(seed) instance",
)
REP002 = Rule(
    "REP002",
    "seed-only-in-entry-points",
    "random.seed()/numpy.random.seed() outside an entry point re-seeds "
    "shared state mid-run and breaks per-seed reproducibility",
)
REP003 = Rule(
    "REP003",
    "no-wall-clock-in-sim",
    "wall-clock/OS-entropy read inside a simulation package; simulation "
    "time is env.now, never the host clock",
)
REP004 = Rule(
    "REP004",
    "no-set-iteration-in-sim",
    "iteration over a set feeds simulation decisions in hash-randomized "
    "order; wrap in sorted(..., key=repr)",
)
REP304 = Rule(
    "REP304",
    "no-wallclock-durations",
    "wall-clock stamp used in duration arithmetic in engine/observability "
    "code; wall clocks jump (NTP, suspend) — measure elapsed time with "
    "time.monotonic()/time.perf_counter()",
)

#: random-module functions that read/advance the global Mersenne state.
_GLOBAL_RANDOM_HEADS = ("random.", "numpy.random.")
#: Attributes of the random modules that are *fine* to touch: seeded
#: constructor, state plumbing, and the seeded numpy generator factory.
_RANDOM_SAFE_TAILS = {"Random", "getstate", "setstate", "default_rng"}

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
}

#: Wall-clock *stamp* producers for REP304.  Deliberately excludes the
#: monotonic family (``time.monotonic``/``time.perf_counter``) — those are
#: the fix, not the offence: they cannot jump, so differences between them
#: are honest durations.  Stamping a wall time into a record (run
#: metadata, log timestamps) is fine; *subtracting* two wall stamps
#: to measure elapsed time is the bug this rule catches.
_WALLCLOCK_STAMP_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register(REP001, REP002)
class GlobalRandomChecker(Checker):
    """Flags global-RNG calls (REP001) and stray re-seeding (REP002)."""

    def visit_Call(self, node: ast.Call) -> None:
        name = self.call_name(node)
        if name is not None:
            if name in ("random.seed", "numpy.random.seed"):
                if not self.in_entry_point(node):
                    self.report(
                        "REP002", node,
                        f"{name}() outside an entry point: seeding belongs in "
                        "main()/__main__ so every run is seeded exactly once",
                    )
            elif name.startswith(_GLOBAL_RANDOM_HEADS):
                tail = name.rsplit(".", 1)[-1]
                if tail == "SystemRandom":
                    self.report(
                        "REP001", node,
                        "random.SystemRandom draws OS entropy and can never "
                        "be reproduced from a seed",
                    )
                elif tail == "default_rng" and not (node.args or node.keywords):
                    self.report(
                        "REP001", node,
                        "default_rng() without a seed is entropy-seeded; pass "
                        "the experiment seed explicitly",
                    )
                elif tail == "Random" and not (node.args or node.keywords):
                    self.report(
                        "REP001", node,
                        "random.Random() without a seed is entropy-seeded; "
                        "pass the experiment seed explicitly",
                    )
                elif tail not in _RANDOM_SAFE_TAILS:
                    self.report(
                        "REP001", node,
                        f"{name}() uses the process-global RNG; draw from a "
                        "seeded random.Random instance threaded through the "
                        "simulation instead",
                    )
        self.generic_visit(node)


@register(REP003)
class WallClockChecker(Checker):
    """Wall-clock and OS-entropy reads are banned in simulation packages."""

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.in_sim_package:
            name = self.call_name(node)
            if name in _WALL_CLOCK_CALLS:
                self.report(
                    "REP003", node,
                    f"{name}() inside a simulation package; the only clock a "
                    "simulation may read is env.now",
                )
        self.generic_visit(node)


@register(REP004)
class SetIterationChecker(Checker):
    """Iteration over sets in simulation packages must go through sorted().

    Three detection tiers, cheapest first:

    1. syntactically evident sets: literals, ``set()``/``frozenset()`` calls,
       set comprehensions, and set-operator expressions built from them;
    2. local names whose every assignment in the enclosing scope is such an
       expression;
    3. attributes (and zero-to-one-argument method calls) whose name appears
       in the configured ``set-attributes`` list — the project-wide contract
       for ``Cell.neighbors``-style fields typed ``Set[Hashable]``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scope_sets: list[Set[str]] = []

    # -- scope bookkeeping: names locally provable to be sets ---------------

    def _walk_function(self, node: ast.AST) -> None:
        self._scope_sets.append(self._set_names(node))
        super()._walk_function(node)
        self._scope_sets.pop()

    visit_FunctionDef = _walk_function
    visit_AsyncFunctionDef = _walk_function
    visit_Lambda = _walk_function

    def visit_Module(self, node: ast.Module) -> None:
        self._scope_sets.append(self._set_names(node))
        self.generic_visit(node)
        self._scope_sets.pop()

    def _set_names(self, scope: ast.AST) -> Set[str]:
        """Names in ``scope`` (not nested scopes) only ever bound to sets."""
        assigned_set: Set[str] = set()
        assigned_other: Set[str] = set()
        for node in ast.walk(scope):
            if node is not scope and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # ast.walk still descends; fine for a heuristic
            targets = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if self._is_set_expr(value):
                    assigned_set.add(target.id)
                else:
                    assigned_other.add(target.id)
        return assigned_set - assigned_other

    def _name_is_local_set(self, name: str) -> bool:
        return any(name in scope for scope in self._scope_sets)

    # -- set expression classification --------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = self.call_name(node)
            if name in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return self._name_is_local_set(node.id)
        return False

    def _flagged_set_source(self, node: ast.AST) -> Optional[str]:
        """Why ``node`` is considered an unordered set, or None."""
        if self._is_set_expr(node):
            return "a set expression"
        if isinstance(node, ast.Attribute):
            if node.attr in self.ctx.config.set_attributes:
                return f"the Set-typed attribute .{node.attr}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in self.ctx.config.set_attributes:
                return f"the set-returning call .{node.func.attr}()"
        return None

    # -- iteration sites -----------------------------------------------------

    def _check_iter(self, iter_node: ast.AST, site: ast.AST) -> None:
        if not self.ctx.in_sim_package:
            return
        reason = self._flagged_set_source(iter_node)
        if reason is not None:
            self.report(
                "REP004", site,
                f"iterating {reason} in hash-randomized order inside a "
                "simulation decision path; use sorted(..., key=repr)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


@register(REP304)
class WallClockDurationChecker(Checker):
    """Durations computed from wall-clock stamps in engine/obs code.

    Engine and observability code legitimately *records* wall-clock
    stamps (run metadata, log timestamps), so unlike
    REP003 this rule does not ban the calls outright.  It flags the
    arithmetic: a subtraction or comparison whose operand is a wall-clock
    stamp — either a direct ``time.time()``-family call, or a local name
    whose every assignment in the enclosing scope is such a call (the
    same scope heuristic :class:`SetIterationChecker` uses for sets).
    Simulation packages are excluded; REP003 already bans the reads
    there wholesale.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scope_stamps: list[Set[str]] = []
        haystack = "/" + self.ctx.path.strip("/") + "/"
        self._applies = (
            self.ctx.in_engine_package or "/repro/obs/" in haystack
        ) and not self.ctx.in_sim_package

    # -- scope bookkeeping: names locally provable to be wall stamps --------

    def _walk_function(self, node: ast.AST) -> None:
        self._scope_stamps.append(self._stamp_names(node))
        super()._walk_function(node)
        self._scope_stamps.pop()

    visit_FunctionDef = _walk_function
    visit_AsyncFunctionDef = _walk_function
    visit_Lambda = _walk_function

    def visit_Module(self, node: ast.Module) -> None:
        self._scope_stamps.append(self._stamp_names(node))
        self.generic_visit(node)
        self._scope_stamps.pop()

    def _stamp_names(self, scope: ast.AST) -> Set[str]:
        """Names in ``scope`` only ever bound to wall-clock stamp calls."""
        stamped: Set[str] = set()
        other: Set[str] = set()
        for node in ast.walk(scope):
            if node is not scope and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # ast.walk still descends; fine for a heuristic
            targets = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if self._is_stamp_call(value):
                    stamped.add(target.id)
                else:
                    other.add(target.id)
        return stamped - other

    def _is_stamp_call(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and self.call_name(node) in _WALLCLOCK_STAMP_CALLS
        )

    def _stamp_source(self, node: ast.AST) -> Optional[str]:
        """Why ``node`` is a wall-clock stamp, or None."""
        if self._is_stamp_call(node):
            return f"{self.call_name(node)}()"  # type: ignore[union-attr]
        if isinstance(node, ast.Name) and any(
            node.id in scope for scope in self._scope_stamps
        ):
            return f"'{node.id}' (assigned from a wall-clock stamp)"
        return None

    # -- arithmetic sites ----------------------------------------------------

    def _check_operands(self, site: ast.AST, *operands: ast.AST) -> None:
        for operand in operands:
            reason = self._stamp_source(operand)
            if reason is not None:
                self.report(
                    "REP304", site,
                    f"{reason} in duration arithmetic; wall clocks jump "
                    "(NTP, suspend) — measure elapsed time with "
                    "time.monotonic()/time.perf_counter()",
                )
                return

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self._applies and isinstance(node.op, ast.Sub):
            self._check_operands(node, node.left, node.right)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if self._applies:
            self._check_operands(node, node.left, *node.comparators)
        self.generic_visit(node)
