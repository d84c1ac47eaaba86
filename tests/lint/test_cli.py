"""CLI contract tests: exit codes, JSON schema stability, configuration.

The exit codes (0 clean / 1 findings / 2 usage error) and the
``--format=json`` shape are consumed by CI; these tests are the contract.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

CLEAN_MODULE = """\
def double(x):
    return 2 * x
"""

# Inside src/repro/sim/ this module violates REP001 (global RNG) and
# REP003 (wall clock).
DIRTY_MODULE = """\
import random
import time


def jitter():
    return random.random() + time.time()
"""


def run_lint(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture
def tree(tmp_path):
    """A minimal fake checkout: src/repro/sim/ with one module."""
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "module.py").write_text(CLEAN_MODULE)
    return tmp_path


def dirty(tree):
    (tree / "src" / "repro" / "sim" / "module.py").write_text(DIRTY_MODULE)
    return tree


# -- exit codes -------------------------------------------------------------


def test_exit_0_on_clean_tree(tree):
    proc = run_lint(["src"], cwd=tree)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_exit_1_on_findings(tree):
    proc = run_lint(["src"], cwd=dirty(tree))
    assert proc.returncode == 1
    assert "REP001" in proc.stdout
    assert "REP003" in proc.stdout


def test_exit_1_on_syntax_error(tree):
    (tree / "src" / "repro" / "sim" / "broken.py").write_text("def oops(:\n")
    proc = run_lint(["src"], cwd=tree)
    assert proc.returncode == 1
    assert "syntax error" in proc.stdout


def test_exit_2_on_unknown_rule(tree):
    proc = run_lint(["--select", "REP999", "src"], cwd=tree)
    assert proc.returncode == 2
    assert "unknown rule id" in proc.stderr


def test_exit_2_on_missing_path(tree):
    proc = run_lint(["no/such/dir"], cwd=tree)
    assert proc.returncode == 2
    assert "no such file or directory" in proc.stderr


def test_exit_2_on_bad_flag(tree):
    # argparse handles unknown flags/choices with its own exit code 2.
    proc = run_lint(["--format", "xml", "src"], cwd=tree)
    assert proc.returncode == 2


@pytest.mark.parametrize("flag", [
    ["--jobs", "2"], ["--cache"], ["--cache-dir", "c"], ["--baseline", "b"],
    ["--no-baseline"], ["--write-baseline"], ["--format", "sarif"],
])
def test_exit_2_on_removed_option(tree, flag):
    proc = run_lint([*flag, "src"], cwd=tree)
    assert proc.returncode == 2


# -- select / ignore --------------------------------------------------------


def test_select_narrows_to_one_rule(tree):
    proc = run_lint(["--select", "REP003", "src"], cwd=dirty(tree))
    assert proc.returncode == 1
    assert "REP003" in proc.stdout
    assert "REP001" not in proc.stdout


def test_ignore_drops_rules(tree):
    proc = run_lint(
        ["--ignore", "REP001,REP003", "src"], cwd=dirty(tree)
    )
    assert proc.returncode == 0, proc.stdout


# -- JSON format ------------------------------------------------------------


def test_json_schema_is_stable(tree):
    proc = run_lint(["--format", "json", "src"], cwd=dirty(tree))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert sorted(payload) == [
        "counts", "errors", "files_checked", "findings", "suppressed",
        "version",
    ]
    assert payload["version"] == 2
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"REP001": 1, "REP003": 1}
    for finding in payload["findings"]:
        assert sorted(finding) == ["col", "line", "message", "path", "rule"]
        assert isinstance(finding["line"], int)
        assert isinstance(finding["col"], int)
    # Paths are repo-relative with forward slashes on every platform.
    assert payload["findings"][0]["path"] == "src/repro/sim/module.py"


def test_json_clean_tree(tree):
    proc = run_lint(["--format", "json", "src"], cwd=tree)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["findings"] == []
    assert payload["counts"] == {}


# -- misc -------------------------------------------------------------------


def test_list_rules(tree):
    proc = run_lint(["--list-rules"], cwd=tree)
    assert proc.returncode == 0
    for rule_id in ("REP001", "REP004", "REP101", "REP201", "REP302"):
        assert rule_id in proc.stdout


def test_pyproject_config_is_honoured(tree):
    # Narrow sim-packages so the dirty module falls outside them: REP003
    # (sim-scoped) disappears, REP001 (global) stays.
    (tree / "pyproject.toml").write_text(
        '[tool.repro-lint]\nsim-packages = ["repro/other"]\n'
    )
    proc = run_lint(["src"], cwd=dirty(tree))
    assert proc.returncode == 1
    assert "REP001" in proc.stdout
    assert "REP003" not in proc.stdout


def test_unknown_pyproject_key_is_usage_error(tree):
    (tree / "pyproject.toml").write_text(
        "[tool.repro-lint]\ntypo-key = true\n"
    )
    proc = run_lint(["src"], cwd=tree)
    assert proc.returncode == 2
    assert "unknown keys" in proc.stderr


def test_baseline_key_is_unknown(tree):
    (tree / "pyproject.toml").write_text(
        '[tool.repro-lint]\nbaseline = "lint-baseline.json"\n'
    )
    proc = run_lint(["src"], cwd=tree)
    assert proc.returncode == 2
    assert "unknown keys: baseline" in proc.stderr
