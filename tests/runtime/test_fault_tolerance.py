"""Fault-tolerance tests: retries, timeouts, partial results, crashes.

Faults are scripted through :class:`repro.runtime.FaultInjector` so every
scenario is deterministic: the injector fails the first N attempts of a
chosen config (exception, hang, or hard process crash) and computes
normally afterwards, with attempt counters on disk so the schedule holds
across process-pool workers.  The core acceptance property throughout:
results that survive the faults are bit-identical to a fault-free serial
run.
"""

import threading
import time
import warnings

import pytest

from repro.runtime import (
    ExperimentRunner,
    FailedResult,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ResultCache,
    WorkerCrash,
    WorkerError,
    drop_failures,
    failed,
    succeeded,
)
from repro.sim import figure6_config, simulate_twocell_stats

CONFIGS = [1, 2, 3, 4]
EXPECTED = [1, 4, 9, 16]


def _square(x):
    return x * x


def _no_sleep(_seconds):
    return None


def _lock(_config):
    return threading.Lock()


class _UnloadableError(Exception):
    """Pickles, but cannot be rebuilt from its args on the other side."""

    def __init__(self, first, second):
        super().__init__(first)


def _raise_unloadable(config):
    raise _UnloadableError(config, "second")


# -- retry with exponential backoff ----------------------------------------


def test_transient_failure_retried_serial(tmp_path):
    injector = FaultInjector(
        _square, {2: FaultSpec("raise", attempts=2)}, tmp_path
    )
    runner = ExperimentRunner(jobs=1, max_retries=3, sleep=_no_sleep)
    assert runner.run_many(injector, CONFIGS) == EXPECTED
    assert injector.attempts_for(2) == 3  # two scripted failures + success
    assert injector.attempts_for(1) == 1


def test_transient_failure_retried_process_backend(tmp_path):
    injector = FaultInjector(
        _square, {3: FaultSpec("raise", attempts=1)}, tmp_path
    )
    runner = ExperimentRunner(jobs=2, max_retries=2, sleep=_no_sleep)
    assert runner.run_many(injector, CONFIGS) == EXPECTED


def test_backoff_schedule_doubles(tmp_path):
    """Attempt k waits retry_backoff * 2**(k-1) seconds before retrying."""
    injector = FaultInjector(
        _square, {1: FaultSpec("raise", attempts=3)}, tmp_path
    )
    recorded = []
    runner = ExperimentRunner(
        jobs=1, max_retries=3, retry_backoff=0.25, sleep=recorded.append
    )
    assert runner.run_many(injector, [1]) == [1]
    assert recorded == [0.25, 0.5, 1.0]


def test_exhausted_retries_raise_worker_error_with_attempts(tmp_path):
    injector = FaultInjector(
        _square, {3: FaultSpec("raise", attempts=10)}, tmp_path
    )
    runner = ExperimentRunner(jobs=1, max_retries=2, sleep=_no_sleep)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(injector, CONFIGS)
    err = excinfo.value
    assert err.attempts == 3
    assert err.index == 2
    assert err.config == 3
    assert isinstance(err.cause, InjectedFault)
    assert "after 3 attempts" in str(err)


def test_zero_retries_fails_on_first_attempt(tmp_path):
    injector = FaultInjector(
        _square, {1: FaultSpec("raise", attempts=1)}, tmp_path
    )
    runner = ExperimentRunner(jobs=1)
    with pytest.raises(WorkerError):
        runner.run_many(injector, CONFIGS)
    assert injector.attempts_for(1) == 1


# -- partial results --------------------------------------------------------


def test_partial_yields_failed_result_in_submission_slot(tmp_path):
    injector = FaultInjector(
        _square, {3: FaultSpec("raise", attempts=10)}, tmp_path
    )
    runner = ExperimentRunner(
        jobs=1, max_retries=1, partial=True, sleep=_no_sleep
    )
    results = runner.run_many(injector, CONFIGS)
    assert results[0] == 1 and results[1] == 4 and results[3] == 16
    sentinel = results[2]
    assert isinstance(sentinel, FailedResult)
    assert sentinel.index == 2
    assert sentinel.config == 3
    assert sentinel.attempts == 2
    assert "InjectedFault" in sentinel.error
    assert "scripted fault" in sentinel.traceback


def test_partial_preserves_order_with_multiple_failures(tmp_path):
    plan = {
        1: FaultSpec("raise", attempts=10),
        4: FaultSpec("raise", attempts=10),
    }
    injector = FaultInjector(_square, plan, tmp_path)
    runner = ExperimentRunner(jobs=2, partial=True, sleep=_no_sleep)
    results = runner.run_many(injector, CONFIGS)
    assert [f.index for f in failed(results)] == [0, 3]
    assert succeeded(results) == [4, 9]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kept = drop_failures(results, context="unit test")
    assert kept == [4, 9]
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "unit test" in message and "indices [0, 3]" in message


def test_partial_failures_are_not_cached(tmp_path):
    injector = FaultInjector(
        _square, {2: FaultSpec("raise", attempts=10)}, tmp_path / "faults"
    )
    cache = ResultCache(root=tmp_path / "cache")
    runner = ExperimentRunner(
        jobs=1, partial=True, cache=cache, sleep=_no_sleep
    )
    results = runner.run_many(injector, CONFIGS)
    assert isinstance(results[1], FailedResult)
    # Only the three successes were persisted; a later fault-free run
    # recomputes exactly the failed point and hits the cache for the rest.
    assert len(cache) == 3
    clean = ExperimentRunner(jobs=1, cache=cache)
    assert clean.run_many(_square, CONFIGS) == EXPECTED
    assert cache.hits == 3 and len(cache) == 4


# -- timeouts ---------------------------------------------------------------


def test_hung_worker_cancelled_at_timeout_process_backend(tmp_path):
    """A hung supervised worker is terminated at the deadline and the
    config rescheduled; the retry (no longer scripted to hang) succeeds."""
    injector = FaultInjector(
        _square,
        {2: FaultSpec("hang", attempts=1, hang_seconds=60.0)},
        tmp_path,
    )
    runner = ExperimentRunner(
        jobs=2, max_retries=1, timeout=0.5, sleep=_no_sleep
    )
    started = time.monotonic()
    assert runner.run_many(injector, CONFIGS) == EXPECTED
    # Cancellation, not expiry: nowhere near the 60 s scripted hang.
    assert time.monotonic() - started < 30.0


def test_hung_worker_interrupted_at_timeout_serial_backend(tmp_path):
    injector = FaultInjector(
        _square,
        {4: FaultSpec("hang", attempts=1, hang_seconds=60.0)},
        tmp_path,
    )
    runner = ExperimentRunner(
        jobs=1, max_retries=1, timeout=0.4, sleep=_no_sleep
    )
    started = time.monotonic()
    assert runner.run_many(injector, CONFIGS) == EXPECTED
    assert time.monotonic() - started < 30.0


def test_timeout_exhaustion_yields_failed_result(tmp_path):
    injector = FaultInjector(
        _square,
        {1: FaultSpec("hang", attempts=10, hang_seconds=60.0)},
        tmp_path,
    )
    runner = ExperimentRunner(
        jobs=2, max_retries=1, timeout=0.3, partial=True, sleep=_no_sleep
    )
    results = runner.run_many(injector, CONFIGS)
    sentinel = results[0]
    assert isinstance(sentinel, FailedResult)
    assert sentinel.attempts == 2
    assert "ReplicationTimeout" in sentinel.error
    assert results[1:] == EXPECTED[1:]


# -- crashes ----------------------------------------------------------------


def test_crashed_worker_retried_process_backend(tmp_path):
    injector = FaultInjector(
        _square, {2: FaultSpec("crash", attempts=1)}, tmp_path
    )
    runner = ExperimentRunner(jobs=2, max_retries=2, sleep=_no_sleep)
    assert runner.run_many(injector, CONFIGS) == EXPECTED


def test_crash_exhaustion_raises_worker_crash(tmp_path):
    injector = FaultInjector(
        _square, {2: FaultSpec("crash", attempts=10, exit_code=7)}, tmp_path
    )
    runner = ExperimentRunner(jobs=2, max_retries=1, sleep=_no_sleep)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(injector, CONFIGS)
    assert isinstance(excinfo.value.cause, WorkerCrash)
    assert "exit code 7" in str(excinfo.value.cause)


def test_crash_at_default_options_raises_worker_error(tmp_path):
    """No fault-tolerance option set: a crash still names its config and
    is counted, exactly as under ``partial`` or ``max_retries``."""
    injector = FaultInjector(
        _square, {3: FaultSpec("crash", attempts=1, exit_code=7)}, tmp_path
    )
    runner = ExperimentRunner(jobs=2)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(injector, CONFIGS)
    err = excinfo.value
    assert err.config == 3 and err.index == 2
    assert isinstance(err.cause, WorkerCrash)
    assert "exit code 7" in str(err.cause)
    assert runner.telemetry.crashes == 1
    assert runner.telemetry.failures == 1


@pytest.mark.parametrize(
    "fn, cause_type, message",
    [
        (_lock, RuntimeError, "unpicklable result from worker"),
        (_raise_unloadable, TypeError, "__init__()"),
    ],
)
def test_unsendable_report_at_default_options_raises_worker_error(
    fn, cause_type, message
):
    runner = ExperimentRunner(jobs=2)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(fn, CONFIGS)
    err = excinfo.value
    assert err.config in CONFIGS
    assert isinstance(err.cause, cause_type)
    assert message in str(err.cause)


def test_crash_demoted_to_exception_on_serial_backend(tmp_path):
    """In-coordinator crashes would kill the test process; the injector
    demotes them to InjectedFault so serial sweeps stay testable."""
    injector = FaultInjector(
        _square, {2: FaultSpec("crash", attempts=1)}, tmp_path
    )
    runner = ExperimentRunner(jobs=1, max_retries=1, sleep=_no_sleep)
    assert runner.run_many(injector, CONFIGS) == EXPECTED


# -- acceptance: faults never change surviving results ----------------------


def test_mixed_fault_sweep_bit_identical_to_fault_free_serial(tmp_path):
    """Crashes, hangs, and exceptions across a real simulation sweep: after
    retries under the supervised backend, every result equals the
    fault-free serial run bit for bit."""
    configs = [
        figure6_config(seed=seed, horizon=40.0) for seed in (1, 2, 3, 4)
    ]
    baseline = ExperimentRunner(jobs=1).run_many(
        simulate_twocell_stats, configs
    )
    plan = {
        configs[0]: FaultSpec("raise", attempts=2),
        configs[1]: FaultSpec("crash", attempts=1),
        configs[2]: FaultSpec("hang", attempts=1, hang_seconds=60.0),
    }
    injector = FaultInjector(simulate_twocell_stats, plan, tmp_path)
    runner = ExperimentRunner(
        jobs=2, max_retries=3, timeout=10.0, partial=True, sleep=_no_sleep
    )
    results = runner.run_many(injector, configs)
    assert not failed(results)
    assert results == baseline


def test_retry_results_identical_on_both_backends(tmp_path):
    baseline = ExperimentRunner(jobs=1).run_many(_square, CONFIGS)
    for jobs in (1, 2):
        injector = FaultInjector(
            _square,
            {2: FaultSpec("raise", attempts=1)},
            tmp_path / f"jobs{jobs}",
        )
        runner = ExperimentRunner(jobs=jobs, max_retries=1, sleep=_no_sleep)
        assert runner.run_many(injector, CONFIGS) == baseline


# -- constructor validation --------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"retry_backoff": -0.5},
        {"timeout": 0.0},
        {"timeout": -3.0},
        {"backend": "threads"},
        {"backend": "serial", "jobs": 2},
    ],
)
def test_invalid_runner_options_rejected(kwargs):
    with pytest.raises(ValueError):
        ExperimentRunner(**{"jobs": 1, **kwargs})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "explode"},
        {"kind": "raise", "attempts": 0},
        {"kind": "hang", "hang_seconds": -1.0},
    ],
)
def test_invalid_fault_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        FaultSpec(**kwargs)
