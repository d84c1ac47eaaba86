"""Repo-corpus and mutation-corpus tests.

Three contracts live here:

* the repository's own sources lint clean under the full rule set;
* the REP404 suppression in ``connection.py`` stays load-bearing:
  dropping it brings the finding back;
* every module in ``corpus/`` (simulation mistakes, each linted under the
  virtual path its header names) raises exactly its declared rule set.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.lint.config import LintConfig
from repro.lint.runner import lint_paths, lint_source

REPO = pathlib.Path(__file__).resolve().parents[2]
CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
_SRC = str(REPO / "src")


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


# -- the repository is its own corpus ----------------------------------------


def test_repo_corpus_is_clean():
    """``findings`` must be empty: anything new in ``src/`` either gets
    fixed or suppressed in place with a reason, never accumulated."""
    proc = run_lint(["--format", "json", "src", "tests"], cwd=REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["findings"] == []


# -- the real findings stay fixed --------------------------------------------


def test_connection_reset_suppression_is_load_bearing(tmp_path, monkeypatch):
    """reset_conn_ids mutates module state by design (documented, and
    suppressed with a justification); removing the suppression brings the
    REP404 finding back."""
    rel = "src/repro/traffic/connection.py"
    target = tmp_path / rel
    target.parent.mkdir(parents=True)
    target.write_text((REPO / rel).read_text())
    monkeypatch.chdir(tmp_path)

    intact = lint_paths(["src"], config=LintConfig())
    assert [f for f in intact.findings if f.rule == "REP404"] == []

    stripped = target.read_text().replace("  # repro-lint: ignore[REP404]", "")
    assert "ignore[REP404]" not in stripped
    target.write_text(stripped)
    regressed = lint_paths(["src"], config=LintConfig())
    rep404 = [f for f in regressed.findings if f.rule == "REP404"]
    assert len(rep404) == 1
    assert "reset_conn_ids" in rep404[0].message


# -- the mutation corpus -----------------------------------------------------


def _header(source, key):
    prefix = f"# {key}:"
    for line in source.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()
    raise AssertionError(f"corpus file lacks a '{prefix}' header")


@pytest.mark.parametrize(
    "name", sorted(p.name for p in CORPUS.glob("*.py"))
)
def test_mutation_corpus_raises_declared_rules(name):
    source = (CORPUS / name).read_text()
    (path,) = _header(source, "lint-as")
    expected = sorted(_header(source, "expect"))
    found = lint_source(source, path, config=LintConfig())
    assert sorted({f.rule for f in found}) == expected, [
        f.render() for f in found
    ]
