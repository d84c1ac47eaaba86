"""Observability must be jobs-invariant: merge workers, change nothing.

Workers run with a private metrics registry; the coordinator folds their
snapshots back in deterministic replication order.  The contract tested
here is strict equality: the ``metrics`` section of ``--stats-json`` must
be *byte-identical* at any ``--jobs N`` — and invariant under
``PYTHONHASHSEED``, because pool workers are separate interpreters with
their own hash seeds.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.__main__ import main
from repro.experiments.adaptation_value import (
    AdaptationValueConfig,
    simulate_adaptation_policy,
)
from repro.obs import MetricsRegistry, use_registry
from repro.runtime import ExperimentRunner

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
HASH_SEEDS = ("0", "1", "31337")


def _metrics_section(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return json.dumps(json.load(fh)["metrics"], indent=2)


# -- CLI: jobs-invariance ----------------------------------------------------


def test_metrics_json_identical_across_jobs(tmp_path, capsys):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["table2", "--jobs", "1", "--stats-json", str(serial)]) == 0
    assert main(["table2", "--jobs", "4", "--stats-json", str(parallel)]) == 0
    capsys.readouterr()
    assert _metrics_section(serial) == _metrics_section(parallel)


def test_stats_prints_merged_domain_counters(capsys):
    assert main(["table2", "--jobs", "2", "--stats"]) == 0
    out = capsys.readouterr().out
    report = out[out.index("run telemetry:"):]
    assert "domain counters:" in report
    assert "admission_decisions_total{accepted=True,reason=none}" in report


# -- hash-seed invariance (subprocess: PYTHONHASHSEED is read at startup) ----


def _metrics_under(hash_seed: str, path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table2", "--jobs", "2",
         "--stats-json", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return _metrics_section(path)


def test_merged_metrics_json_is_hashseed_invariant(tmp_path):
    outputs = {
        _metrics_under(seed, tmp_path / f"stats-{seed}.json") for seed in HASH_SEEDS
    }
    assert len(outputs) == 1, (
        "merged --stats-json metrics depend on PYTHONHASHSEED:\n"
        + "\n---\n".join(sorted(outputs))
    )
    payload = json.loads(next(iter(outputs)))
    assert any(
        m["name"] == "admission_decisions_total" for m in payload["metrics"]
    )


# -- runner-level merge ------------------------------------------------------


def _sweep_configs():
    return [
        AdaptationValueConfig(adaptive=adaptive, seed=seed, duration=30.0)
        for seed in (23, 24)
        for adaptive in (False, True)
    ]


def _observed_sweep(jobs):
    registry = MetricsRegistry()
    with use_registry(registry):
        results = ExperimentRunner(jobs=jobs).run_many(
            simulate_adaptation_policy, _sweep_configs()
        )
    return results, registry.to_json(indent=2)


def test_runner_merge_matches_serial_observation():
    serial_results, serial_metrics = _observed_sweep(1)
    pool_results, pool_metrics = _observed_sweep(2)
    assert pool_results == serial_results
    assert pool_metrics == serial_metrics
    assert "adaptation_commits_total" in pool_metrics


def test_no_observers_means_no_snapshot_overhead():
    runner = ExperimentRunner(jobs=2)
    assert runner._obs_request() is None
    assert runner.run_many(simulate_adaptation_policy, _sweep_configs()[:1])
