"""``python -m repro.lint`` — the command-line front end.

Exit codes (stable, asserted by tests):

* ``0`` — no findings (after suppressions),
* ``1`` — at least one finding, or a file failed to parse,
* ``2`` — usage error (unknown rule id, missing path, bad configuration).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .config import LintConfig, load_config
from .registry import all_rules
from .runner import LintResult, lint_paths

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Bump only when the --format=json shape changes (schema-tested).
JSON_FORMAT_VERSION = 2


def _split_rules(values: Optional[List[str]]) -> List[str]:
    rules: List[str] = []
    for value in values or []:
        rules.extend(r.strip().upper() for r in value.split(",") if r.strip())
    return rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based simulation-correctness linter for the repro "
                    "codebase (determinism, DES protocol, pickle safety).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--select", action="append", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _validate_rules(rules: Sequence[str]) -> Optional[str]:
    known = {r.id for r in all_rules()}
    for rule in rules:
        if rule not in known:
            return rule
    return None


def _print_text(result: LintResult, out) -> None:
    findings = result.sorted_findings()
    for finding in findings:
        print(finding.render(), file=out)
    for path, message in result.parse_errors:
        print(f"{path}: error: {message}", file=out)
    summary = (
        f"{len(findings)} finding(s) in {result.files_checked} file(s)"
    )
    if result.suppressed:
        summary += f" ({result.suppressed} suppressed)"
    print(summary, file=out)


def _print_json(result: LintResult, out) -> None:
    findings = result.sorted_findings()
    counts: dict = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    payload = {
        "version": JSON_FORMAT_VERSION,
        "findings": [f.to_dict() for f in findings],
        "counts": dict(sorted(counts.items())),
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "errors": [
            {"path": path, "message": message}
            for path, message in result.parse_errors
        ],
    }
    json.dump(payload, out, indent=2, sort_keys=False)
    out.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name:<28} {rule.summary}")
        return EXIT_CLEAN

    try:
        config: LintConfig = load_config()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    select = _split_rules(args.select)
    ignore = _split_rules(args.ignore)
    bad = _validate_rules(select + ignore)
    if bad is not None:
        print(
            f"error: unknown rule id {bad!r} "
            "(see --list-rules for the catalogue)",
            file=sys.stderr,
        )
        return EXIT_USAGE

    config = config.with_overrides(
        select=select or None, ignore=ignore or None
    )

    try:
        result = lint_paths(args.paths, config=config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        _print_json(result, sys.stdout)
    else:
        _print_text(result, sys.stdout)

    if result.findings or result.parse_errors:
        return EXIT_FINDINGS
    return EXIT_CLEAN
