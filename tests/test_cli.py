"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_enumerates_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(EXPERIMENTS)


def test_single_experiment_runs(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "=== table2 ===" in out
    assert "admission round-trip outcomes" in out


def test_figure2_runs(capsys):
    assert main(["--stats", "figure2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert re.search(r"replications:\s+3\n", out)  # one per class session


def test_stats_counts_campus_day_replication(capsys):
    assert main(["--stats", "campus-day"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"replications:\s+1\n", out)
    events = re.search(r"des events:\s+([\d,]+) processed", out)
    assert events and int(events.group(1).replace(",", "")) > 0


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_jobs_flag_runs_through_process_pool(capsys):
    assert main(["--jobs", "2", "table2"]) == 0
    assert "admission round-trip outcomes" in capsys.readouterr().out


def test_bad_jobs_value_rejected():
    with pytest.raises(ValueError):
        main(["--jobs", "bogus", "table2"])


def test_repro_jobs_env_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert main(["table2"]) == 0
    assert "admission round-trip outcomes" in capsys.readouterr().out


def test_cache_flag_reuses_results(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["--cache", "table2"]) == 0
    first = capsys.readouterr().out
    assert main(["--cache", "table2"]) == 0
    assert capsys.readouterr().out == first
    assert any(tmp_path.rglob("*.pkl"))


def test_fault_tolerance_flags_accepted(capsys):
    assert main(
        ["--max-retries", "2", "--timeout", "60", "--partial", "table2"]
    ) == 0
    assert "admission round-trip outcomes" in capsys.readouterr().out


def test_negative_max_retries_rejected():
    with pytest.raises(ValueError):
        main(["--max-retries", "-1", "table2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--nodes", "3", "table2"],
        ["--node-jobs", "2", "--backend", "process", "table2"],
        ["campus", "--nodes", "3", "--portables", "100"],
        ["campus", "--node-jobs", "2", "--portables", "100"],
    ],
)
def test_node_flags_require_distributed_backend(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "require --backend distributed" in capsys.readouterr().err


# -- cache subcommand -------------------------------------------------------


def _seed_cache(root, configs=(1, 2, 3)):
    import os

    from repro.runtime import ResultCache

    cache = ResultCache(root=root)
    paths = []
    for rank, config in enumerate(configs):
        path = cache.put("cli.worker", config, config * 10)
        stamp = 1_000_000_000 + rank * 60  # distinct mtimes: LRU order known
        os.utime(path, (stamp, stamp))
        paths.append(path)
    return cache, paths


def test_cache_stats_subcommand(tmp_path, capsys):
    _seed_cache(tmp_path)
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert "entries:    3" in out
    assert "cli.worker" in out


def test_cache_clear_subcommand(tmp_path, capsys):
    _seed_cache(tmp_path)
    assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
    assert "cleared 3 entries" in capsys.readouterr().out
    assert not any(tmp_path.rglob("*.pkl"))


def test_cache_prune_max_size_evicts_lru_order(tmp_path, capsys):
    cache, paths = _seed_cache(tmp_path)
    entry_size = cache.entries()[0].size
    cap = 2 * entry_size
    assert main(
        ["cache", "prune", "--max-size", str(cap), "--dir", str(tmp_path)]
    ) == 0
    assert "evicted 1 entries" in capsys.readouterr().out
    # The least recently used entry went first; the newer two survive.
    assert not paths[0].exists()
    assert paths[1].exists() and paths[2].exists()
    assert cache.total_bytes() <= cap


def test_cache_prune_max_entries_subcommand(tmp_path, capsys):
    _, paths = _seed_cache(tmp_path)
    assert main(
        ["cache", "prune", "--max-entries", "1", "--dir", str(tmp_path)]
    ) == 0
    assert "evicted 2 entries" in capsys.readouterr().out
    assert not paths[0].exists() and not paths[1].exists()
    assert paths[2].exists()


def test_cache_prune_requires_a_cap(tmp_path):
    with pytest.raises(SystemExit):
        main(["cache", "prune", "--dir", str(tmp_path)])


def test_cache_subcommand_honors_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    _seed_cache(tmp_path)
    assert main(["cache", "stats"]) == 0
    assert "entries:    3" in capsys.readouterr().out


# -- observability flags ------------------------------------------------------


def test_trace_flag_jsonl_and_summarize(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.jsonl")
    assert main(["table2", "--trace", trace_path]) == 0
    out = capsys.readouterr().out
    assert f"trace written to {trace_path}" in out

    from repro.obs import get_tracer, read_jsonl

    assert get_tracer() is None  # uninstalled after the run
    records = read_jsonl(trace_path)
    assert any(r["kind"] == "admission.decision" for r in records)

    assert main(["trace", "summarize", trace_path]) == 0
    import json

    summary = json.loads(capsys.readouterr().out)
    assert summary["records"] == len(records)
    assert "admission" in summary


def test_trace_flag_in_memory_prints_summary(capsys):
    assert main(["table2", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "trace summary:" in out
    assert "admission.decision" in out


def test_metrics_json_flag_exports_registry(tmp_path, capsys):
    import json

    metrics_path = str(tmp_path / "metrics.json")
    assert main(["table2", "--metrics-json", metrics_path]) == 0
    assert f"metrics written to {metrics_path}" in capsys.readouterr().out

    from repro.obs import NullRegistry, get_registry

    assert isinstance(get_registry(), NullRegistry)  # restored after the run
    with open(metrics_path, encoding="utf-8") as fh:
        data = json.load(fh)
    names = {m["name"] for m in data["metrics"]}
    assert "admission_decisions_total" in names


def test_stats_json_and_stats_flags(tmp_path, capsys):
    import json

    stats_path = str(tmp_path / "stats.json")
    assert main(["table2", "--stats-json", stats_path]) == 0
    out = capsys.readouterr().out
    assert "run telemetry:" in out
    with open(stats_path, encoding="utf-8") as fh:
        stats = json.load(fh)
    assert stats["batches"] == 1
    assert stats["replications"] > 0
    assert stats["wall_time"]["elapsed"] > 0


def test_trace_summarize_rejects_malformed_file(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"no-kind": 1}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="missing string 'kind'"):
        main(["trace", "summarize", str(bad)])
