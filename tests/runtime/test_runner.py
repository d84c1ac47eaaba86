"""Tests for the ExperimentRunner: backends, ordering, errors, env parsing."""

import os

import pytest

from repro.runtime import ExperimentRunner, WorkerError, resolve_jobs
from repro.sim import figure6_config, simulate_twocell_stats


def _square(x):
    return x * x


def _fail_on_negative(x):
    if x < 0:
        raise ValueError(f"bad input {x}")
    return x


def _figure6_sweep_configs():
    return [
        figure6_config(policy="probabilistic", window=window, p_qos=p_qos,
                       seed=seed, horizon=60.0)
        for window in (0.05, 0.1)
        for p_qos in (0.005, 0.1)
        for seed in (1, 2)
    ]


# -- backends and ordering ------------------------------------------------


def test_serial_preserves_submission_order():
    runner = ExperimentRunner(jobs=1)
    assert runner.run_many(_square, range(10)) == [x * x for x in range(10)]
    assert runner.backend == "serial"


def test_process_pool_preserves_submission_order():
    runner = ExperimentRunner(jobs=3)
    assert runner.backend == "process"
    assert runner.run_many(_square, range(20)) == [x * x for x in range(20)]


def test_parallel_equals_serial_on_figure6_sweep():
    """The determinism contract: element-for-element identical results."""
    configs = _figure6_sweep_configs()
    serial = ExperimentRunner(jobs=1).run_many(simulate_twocell_stats, configs)
    parallel = ExperimentRunner(jobs=4).run_many(simulate_twocell_stats, configs)
    assert len(serial) == len(configs)
    for index, (a, b) in enumerate(zip(serial, parallel)):
        assert a == b, f"result {index} diverged between serial and parallel"


def test_empty_batch():
    assert ExperimentRunner(jobs=4).run_many(_square, []) == []


def test_explicit_backend_validation():
    with pytest.raises(ValueError):
        ExperimentRunner(backend="threads")


# -- worker exception propagation -----------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_error_carries_config(jobs):
    runner = ExperimentRunner(jobs=jobs)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(_fail_on_negative, [3, 1, -7, 2])
    err = excinfo.value
    assert err.config == -7
    assert isinstance(err.cause, ValueError)
    assert "-7" in str(err)
    assert isinstance(err.__cause__, ValueError)


def test_pool_worker_error_includes_remote_traceback():
    runner = ExperimentRunner(jobs=2)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(_fail_on_negative, [1, -1, 2, 3])
    assert "ValueError" in excinfo.value.worker_traceback


# -- REPRO_JOBS parsing ----------------------------------------------------


def test_resolve_jobs_explicit_values():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs("3") == 3
    cores = max(1, os.cpu_count() or 1)
    assert resolve_jobs(0) == cores
    assert resolve_jobs("auto") == cores
    assert resolve_jobs("AUTO") == cores


def test_resolve_jobs_rejects_garbage():
    with pytest.raises(ValueError):
        resolve_jobs("many")
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_resolve_jobs_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert ExperimentRunner().jobs == 5
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert resolve_jobs() == max(1, os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "")
    assert resolve_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ValueError):
        resolve_jobs()


def test_explicit_jobs_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert ExperimentRunner(jobs=2).jobs == 2


def _pid(_config):
    return os.getpid()


def test_pool_worker_count_clamped_to_batch():
    """``--jobs auto`` on a big box must not fork more workers than
    there are sweep points, and workers persist across attempts rather
    than one process per attempt."""
    for jobs, configs in ((8, 2), (2, 8)):
        pids = ExperimentRunner(jobs=jobs).run_many(_pid, range(configs))
        assert os.getpid() not in pids
        assert len(set(pids)) <= min(jobs, configs)
