"""``repro.lint``: an AST-based simulation-correctness linter.

The reproduction's headline claims (Figures 4-6, Table 2) hold only if every
run is deterministic per seed, and the PR 1 process-pool runtime added a
second contract: parallel sweeps must be bit-identical to serial ones.  Both
are *source-level* invariants that pytest cannot guard — a stray
``random.random()``, a wall-clock read inside the engine, or an unsorted
``set`` iteration feeding an allocation decision silently breaks them.  This
package machine-checks those invariants.

Rule families (see ``docs/LINT.md`` for the full catalogue):

``REP0xx`` determinism
    seeded-RNG discipline, no wall-clock reads in sim code, no iteration
    over hash-ordered sets in simulation decision paths.
``REP1xx`` DES protocol
    callables handed to ``env.process()`` must be generator functions,
    process bodies must yield events (never plain constants) and must not
    block in ``time.sleep``.
``REP2xx`` pickle / process-pool safety
    work dispatched through ``run_many``/``submit`` must be picklable
    (no lambdas or nested callables), no module-global rebinding from
    worker-side code.
``REP3xx`` simulation hygiene
    no ``==``/``!=`` on float sim-clock expressions, no bare ``except:``
    in engine/runtime code.
``REP4xx`` state shared across replications
    no seeded RNG created at import time, no module state mutated by a
    same-module registered plugin, no class attribute mutated through the
    class name.

Every rule looks at one module at a time; a run is one serial pass over
the discovered files.

Usage::

    python -m repro.lint [paths] [--select/--ignore/--format/--list-rules]

Per-line suppression::

    risky_line()  # repro-lint: ignore[REP004]
"""

from .config import LintConfig, load_config
from .findings import Finding
from .registry import Rule, all_rules, get_rule, iter_checkers, register
from .runner import lint_paths, lint_source

__all__ = [
    "Finding",
    "LintConfig",
    "Rule",
    "all_rules",
    "get_rule",
    "iter_checkers",
    "lint_paths",
    "lint_source",
    "load_config",
    "register",
]
