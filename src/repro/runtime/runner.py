"""``ExperimentRunner``: dispatch independent simulation configs.

The runner owns *how* a sweep executes (in-process, in worker processes,
or across distributed nodes), never *what* it computes: workers receive a
module-level function plus one picklable config and return one picklable
result.  Submission order is preserved, failures surface as
:class:`WorkerError` with the failing config attached, and an optional
:class:`~repro.runtime.cache.ResultCache` short-circuits configs that were
already simulated.

There are two local placements and one failure policy:

* ``"serial"`` runs every attempt in the coordinator process;
* ``"process"`` keeps up to ``jobs`` long-lived worker processes, each on
  a private duplex pipe and holding one attempt at a time.  A worker that
  dies is attributed to exactly the config it held (:class:`WorkerCrash`)
  and replaced, as is one cancelled at its deadline.

Every finished attempt (success, exception, timeout or crash) goes
through one settle step that applies the fault-tolerance options,
mirroring the paper's graceful-degradation theme: connections adapt
inside ``[b_min, b_max]`` instead of failing hard, and so should the
harness that sweeps them.

* ``max_retries`` / ``retry_backoff`` — each failing config is re-attempted
  with exponential backoff (``retry_backoff * 2**(attempt-1)`` seconds
  between attempts) before it is declared exhausted;
* ``timeout`` — a per-replication wall-clock budget.  On the process
  backend a hung worker is terminated at the deadline and replaced; on the
  serial backend a ``SIGALRM`` timer interrupts the attempt in place;
* ``partial=True`` — exhausted configs come back as a typed
  :class:`FailedResult` sentinel in their submission slot instead of
  aborting the whole sweep with :class:`WorkerError`.

With none of them set the first failure of any kind raises
:class:`WorkerError`.  Successful results are bit-identical at any
placement — workers are pure functions of their config.

In-worker observability rides on top of the backends: when a tracer or
a real metrics registry is installed on the coordinator, each replication
runs under a private worker-side registry + ring-buffer tracer; the
compact snapshots ride back with the results through the worker pipe and
are merged deterministically in replication-index order, so ``--trace`` /
``--metrics-json`` produce identical output at any ``--jobs N``.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import multiprocessing.process
import os
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from multiprocessing.connection import Connection, wait as _connection_wait
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..des.engine import events_processed_by_core, events_processed_total
from ..obs.metrics import MetricsRegistry, NullRegistry, get_registry, set_registry
from ..obs.profiling import merge_profile_stats
from ..obs.spans import (
    KIND_SWEEP,
    Span,
    SpanLedger,
    get_span_collector,
    sweep_span_id,
)
from ..obs.telemetry import RunTelemetry
from ..obs.trace import RingBufferSink, Tracer, get_tracer, replay_records, set_tracer

if TYPE_CHECKING:
    from pathlib import Path

    from .cache import ResultCache
    from .distributed import NodeTransport

__all__ = [
    "JOBS_ENV",
    "ExperimentRunner",
    "FailedResult",
    "ObsRequest",
    "ObsSnapshot",
    "ReplicationTimeout",
    "register_replication_reset",
    "WorkerCrash",
    "WorkerError",
    "drop_failures",
    "failed",
    "resolve_jobs",
    "succeeded",
]

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Union[int, str, None] = None) -> int:
    """Resolve a worker count from an argument or ``REPRO_JOBS``.

    Accepts a positive int, ``0`` or ``"auto"`` for all cores, or ``None``
    to fall back to the environment (default 1).
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        jobs = raw if raw else 1
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(
                f"invalid job count {jobs!r}: expected a positive integer, "
                f"0, or 'auto'"
            ) from None
    jobs = int(jobs)
    if jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"job count must be >= 0, got {jobs}")
    return jobs


class WorkerError(RuntimeError):
    """A sweep point failed; carries the config that provoked it."""

    def __init__(self, config: Any, index: int, cause: BaseException,
                 worker_traceback: str = "", attempts: int = 1):
        plural = "s" if attempts != 1 else ""
        super().__init__(
            f"sweep config #{index} ({config!r}) failed after {attempts} "
            f"attempt{plural}: {cause!r}"
        )
        self.config = config
        self.index = index
        self.cause = cause
        self.worker_traceback = worker_traceback
        self.attempts = attempts


class ReplicationTimeout(RuntimeError):
    """One replication attempt exceeded the per-attempt wall-clock budget."""


class WorkerCrash(RuntimeError):
    """A worker process died without reporting a result (hard crash)."""


@dataclass(frozen=True)
class FailedResult:
    """Typed sentinel for an exhausted sweep point under ``partial=True``.

    Occupies the failing config's submission slot in ``run_many``'s result
    list so positional merges can detect and skip it.  ``error`` is the
    ``repr`` of the last exception; ``traceback`` the worker-side traceback
    text of the last attempt (empty for cancellations and crashes, which
    have no Python frame to report).
    """

    config: Any
    index: int
    attempts: int
    error: str
    traceback: str = ""


def failed(results: Sequence[Any]) -> List[FailedResult]:
    """The :class:`FailedResult` entries of a ``partial=True`` sweep."""
    return [r for r in results if isinstance(r, FailedResult)]


def succeeded(results: Sequence[Any]) -> List[Any]:
    """A sweep's results with any :class:`FailedResult` entries removed."""
    return [r for r in results if not isinstance(r, FailedResult)]


def drop_failures(results: Sequence[Any], context: str = "sweep") -> List[Any]:
    """Filter :class:`FailedResult` entries, warning when any are dropped.

    Experiment drivers route their ``run_many`` output through this so a
    ``partial=True`` sweep degrades to "merge what survived" with an
    explicit, visible warning instead of crashing on the sentinel.
    """
    bad = failed(results)
    if bad:
        indices = [f.index for f in bad]
        warnings.warn(
            f"{context}: dropping {len(bad)} failed sweep point(s) at "
            f"indices {indices}; last error: {bad[-1].error}",
            RuntimeWarning,
            stacklevel=2,
        )
    return succeeded(results)


#: Default worker ring-buffer capacity (records per replication).  Sized so
#: a full paper-scale replication fits; overflow is still counted and
#: surfaced through ``telemetry.trace_dropped`` rather than lost silently.
DEFAULT_TRACE_CAPACITY = 1 << 20


@dataclass(frozen=True)
class ObsRequest:
    """Picklable instruction telling a worker what to observe.

    The coordinator builds one per batch from its *installed* collectors
    (:func:`~repro.obs.trace.get_tracer` /
    :func:`~repro.obs.metrics.get_registry`) and ships it inside every
    task payload; workers honor it by running the replication under
    private collectors and returning an :class:`ObsSnapshot`.
    """

    metrics: bool = False
    trace: bool = False
    trace_kinds: Optional[frozenset] = None
    ring_capacity: int = DEFAULT_TRACE_CAPACITY
    #: Run the replication under cProfile; the raw stats dict rides back
    #: in the snapshot and is folded deterministically by the coordinator.
    profile: bool = False


@dataclass
class ObsSnapshot:
    """What one replication observed — compact, picklable, mergeable.

    ``metrics`` is a :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
    snapshot; ``records`` the replication's trace records in emission
    order; ``dropped`` counts ring-buffer overflow.
    """

    metrics: Optional[Dict[str, Any]] = None
    records: Optional[List[Dict[str, Any]]] = None
    dropped: int = 0
    #: Raw ``cProfile`` stats dict for the replication, when profiling.
    profile: Optional[Dict[Any, Any]] = None


#: Callables invoked before every replication attempt.  Modules that keep
#: process-global counters (auto-assigned ids and the like) register a
#: reset here, so a replication's auto-ids are a function of the
#: replication alone — never of what the hosting process happened to run
#: first.  Without this, serial and pooled runs of the same sweep emit
#: different ids into traces (a worker that ran 3 prior replications has
#: advanced its counters; a fresh one has not).
_REPLICATION_RESETS: List[Callable[[], None]] = []


def register_replication_reset(reset: Callable[[], None]) -> Callable[[], None]:
    """Register ``reset`` to run at the start of every replication attempt.

    Idempotent per callable; usable as a decorator.  Returns ``reset``.
    """
    if reset not in _REPLICATION_RESETS:
        _REPLICATION_RESETS.append(reset)
    return reset


def _observed_call(
    fn: Callable[[Any], Any], config: Any, obs: Optional[ObsRequest]
) -> Tuple[Any, Optional[ObsSnapshot]]:
    """Run ``fn(config)`` under per-replication observability collectors.

    Installs a fresh registry and/or ring-buffer tracer for the duration
    of the call and restores the previous collectors afterwards — the
    serial backend uses this too, so a ``--jobs 1`` run takes the *same*
    capture-then-merge path as a worker run (the byte-identity guarantee).
    With ``obs=None`` this is a plain call (replication resets still run).
    """
    for reset in _REPLICATION_RESETS:
        reset()
    if obs is None:
        return fn(config), None
    registry = MetricsRegistry() if obs.metrics else None
    sink = RingBufferSink(capacity=obs.ring_capacity) if obs.trace else None
    profiler = cProfile.Profile() if obs.profile else None
    prev_registry = set_registry(registry) if registry is not None else None
    prev_tracer = (
        set_tracer(Tracer(sink, kinds=obs.trace_kinds))
        if sink is not None
        else None
    )
    try:
        if profiler is not None:
            result = profiler.runcall(fn, config)
        else:
            result = fn(config)
    finally:
        if registry is not None:
            set_registry(prev_registry)
        if sink is not None:
            set_tracer(prev_tracer)
    profile_stats: Optional[Dict[Any, Any]] = None
    if profiler is not None:
        profiler.create_stats()
        profile_stats = profiler.stats  # type: ignore[attr-defined]
    return result, ObsSnapshot(
        metrics=registry.to_dict() if registry is not None else None,
        records=sink.records() if sink is not None else None,
        dropped=sink.dropped if sink is not None else 0,
        profile=profile_stats,
    )


def _des_core_delta(before: Dict[str, int]) -> Dict[str, int]:
    """Per-core DES event counts accrued since the ``before`` snapshot
    (:func:`~repro.des.engine.events_processed_by_core`); zero-event cores
    are omitted so telemetry sees only the kernel(s) that actually ran."""
    after = events_processed_by_core()
    return {
        core: count - before.get(core, 0)
        for core, count in after.items()
        if count - before.get(core, 0) > 0
    }


#: (fn, config, obs request) — one attempt's work.
_Payload = Tuple[Callable[[Any], Any], Any, Optional[ObsRequest]]

#: (ok, value-or-(exc, tb), worker seconds, DES events, DES events by
#: core, obs snapshot) — one attempt.
_Message = Tuple[bool, Any, float, int, Dict[str, int], Optional[ObsSnapshot]]


def _failure(cause: BaseException, tb: str, seconds: float) -> _Message:
    """The report of a failed attempt."""
    return False, (cause, tb), seconds, 0, {}, None


def _attempt(payload: _Payload) -> _Message:
    """Run one attempt and report it; never raises an ``Exception``.

    The attempt's wall seconds and DES event counts are measured where it
    runs, so per-replication telemetry survives the process boundary; the
    config context is attached by the coordinator's settle step.
    """
    fn, config, obs = payload
    started = time.perf_counter()
    events_before = events_processed_total()
    cores_before = events_processed_by_core()
    try:
        result, snapshot = _observed_call(fn, config, obs)
    except Exception as exc:  # noqa: BLE001 - settled by the coordinator
        return _failure(exc, traceback.format_exc(), time.perf_counter() - started)
    return (
        True,
        result,
        time.perf_counter() - started,
        events_processed_total() - events_before,
        _des_core_delta(cores_before),
        snapshot,
    )


def _worker_main(conn: Connection, coordinator_end: Connection) -> None:
    """Entry point of a long-lived worker process.

    Runs one payload at a time until the coordinator sends ``None`` or
    its end of the pipe closes.  The worker first drops its own copy of
    that end, so a coordinator that dies without cleaning up reads here
    as EOF and the worker exits instead of waiting forever.
    """
    coordinator_end.close()
    try:
        while True:
            payload = conn.recv()
            if payload is None:
                return
            message = _attempt(payload)
            try:
                conn.send(message)
            except Exception:
                # Unpicklable result or exception: degrade to a picklable
                # failure so the coordinator records an error, not a crash.
                ok, value, seconds = message[:3]
                detail = "result" if ok else "exception"
                conn.send(_failure(
                    RuntimeError(f"unpicklable {detail} from worker"),
                    "" if ok else value[1],
                    seconds,
                ))
    except (EOFError, OSError):
        pass  # the coordinator went away
    finally:
        conn.close()


def _reap(proc: multiprocessing.process.BaseProcess) -> None:
    """Terminate (then kill) a worker process and collect it."""
    if proc.is_alive():
        proc.terminate()
        proc.join(1.0)
        if proc.is_alive():
            proc.kill()
    proc.join()


class ExperimentRunner:
    """Executes batches of independent simulation configs.

    Parameters
    ----------
    jobs:
        Worker count (see :func:`resolve_jobs`).
    backend:
        ``"serial"``, ``"process"``, or ``"distributed"``; defaults to
        ``"process"`` when ``jobs > 1``, else ``"serial"``.  ``"serial"``
        runs every attempt in-process and refuses ``jobs > 1``;
        ``"process"`` runs every attempt in a worker process, even at
        ``jobs=1`` or for a single config.  The distributed backend shards
        each batch across ``nodes`` node-worker processes through a
        content-hash-keyed job manifest (see
        :mod:`repro.runtime.distributed`); results stay bit-identical to
        serial execution and interrupted sweeps resume from their
        completed chunk files.
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache`; hits skip
        simulation entirely.  Failed sweep points are never cached.
    max_retries:
        Failed attempts allowed per config beyond the first (default 0:
        one attempt, fail hard — the pre-fault-tolerance behavior).
    retry_backoff:
        Base backoff in seconds; attempt ``k`` (1-based) waits
        ``retry_backoff * 2**(k-1)`` seconds before retrying.
    timeout:
        Per-attempt wall-clock budget in seconds.  Process workers are
        terminated and replaced at the deadline and the config
        rescheduled; serial attempts are interrupted via ``SIGALRM`` where
        available.
    partial:
        When True, a config that exhausts its attempts yields a
        :class:`FailedResult` in its result slot instead of raising
        :class:`WorkerError`, so one bad point cannot abort a sweep.
    trace_capacity:
        Worker-side trace ring-buffer capacity in records per
        replication; overflow is counted in ``telemetry.trace_dropped``.
    profile:
        Run every replication under :mod:`cProfile` *in the worker*; the
        raw stats ride back with each observation snapshot and fold into
        :attr:`profile_stats` in submission order, so the aggregate is
        deterministic at any ``--jobs``/``--nodes``
        (``python -m repro trace profile`` renders it).
    on_progress:
        Optional ``(RunTelemetry) -> None`` callback invoked after every
        replication settles (success or final failure).  The distributed
        node worker hooks this to publish heartbeat files; the callback
        must not raise.
    span_context:
        Parent span id adopted instead of minting a ``sweep`` span.  Used
        by in-node runners so distributed replication spans parent under
        the coordinator's sweep; leave None otherwise.
    nodes:
        Node-worker count for the distributed backend (default 2).
    node_jobs:
        Worker processes *inside* each node (default 1; accepts the same
        forms as ``jobs``).
    run_root:
        Directory holding distributed run directories (default
        ``benchmarks/.distrun`` or ``$REPRO_DISTRIBUTED_DIR``).
    node_timeout:
        Seconds a node may go without publishing a new chunk file before
        the coordinator cancels it and re-shards its missing chunks
        (default None: wait forever).
    max_node_restarts:
        Re-shard rounds allowed after the first before the coordinator
        gives up with :class:`~repro.runtime.distributed.DistributedRunError`
        (the run directory is kept, so a re-submission resumes).
    node_transport:
        A :class:`~repro.runtime.distributed.NodeTransport` override; the
        default launches local ``repro.runtime.node_worker`` subprocesses.
    sleep, clock:
        Injectable time sources (tests replace them to assert backoff
        schedules without real sleeping).
    """

    def __init__(
        self,
        jobs: Union[int, str, None] = None,
        backend: Optional[str] = None,
        cache: Optional["ResultCache"] = None,
        max_retries: int = 0,
        retry_backoff: float = 0.0,
        timeout: Optional[float] = None,
        partial: bool = False,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        profile: bool = False,
        on_progress: Optional[Callable[[RunTelemetry], None]] = None,
        span_context: Optional[str] = None,
        nodes: int = 2,
        node_jobs: Union[int, str, None] = 1,
        run_root: Union[str, "Path", None] = None,
        node_timeout: Optional[float] = None,
        max_node_restarts: int = 2,
        node_transport: Optional["NodeTransport"] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.jobs = resolve_jobs(jobs)
        if backend is None:
            backend = "process" if self.jobs > 1 else "serial"
        if backend not in ("serial", "process", "distributed"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "serial" and self.jobs > 1:
            raise ValueError(
                f"backend 'serial' runs in-process and takes jobs=1, got {self.jobs}"
            )
        if int(nodes) != nodes or nodes < 1:
            raise ValueError(f"nodes must be an int >= 1, got {nodes!r}")
        if node_timeout is not None and node_timeout <= 0:
            raise ValueError(f"node_timeout must be > 0 seconds, got {node_timeout!r}")
        if int(max_node_restarts) != max_node_restarts or max_node_restarts < 0:
            raise ValueError(
                f"max_node_restarts must be an int >= 0, got {max_node_restarts!r}"
            )
        if int(max_retries) != max_retries or max_retries < 0:
            raise ValueError(f"max_retries must be an int >= 0, got {max_retries!r}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff!r}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {timeout!r}")
        self.backend = backend
        self.cache = cache
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.timeout = timeout
        self.partial = bool(partial)
        self.trace_capacity = int(trace_capacity)
        self.profile = bool(profile)
        self.on_progress = on_progress
        self.span_context = span_context
        self.nodes = int(nodes)
        self.node_jobs = resolve_jobs(node_jobs)
        self.run_root = run_root
        self.node_timeout = node_timeout
        self.max_node_restarts = int(max_node_restarts)
        self.node_transport = node_transport
        self._sleep = sleep
        self._clock = clock
        self._span_ledger: Optional[SpanLedger] = None
        #: Merged raw cProfile stats across this runner's batches
        #: (``{(file, line, func): (cc, nc, tt, ct, callers)}``).
        self._profile_stats: Dict[Any, Any] = {}
        #: Aggregated accounting across this runner's ``run_many`` batches
        #: (``--stats`` / ``--stats-json`` read this).
        self.telemetry = RunTelemetry()

    @property
    def profile_stats(self) -> Dict[Any, Any]:
        """Merged raw cProfile stats (see :mod:`repro.obs.profiling`)."""
        return self._profile_stats

    def run_many(
        self,
        fn: Callable[[Any], Any],
        configs: Sequence[Any],
        label: Optional[str] = None,
    ) -> List[Any]:
        """Run ``fn(config)`` for every config, results in submission order.

        ``fn`` must be a module-level callable and each config picklable
        when the process backend is active.  Under ``partial=True`` the
        returned list may contain :class:`FailedResult` sentinels at the
        submission indices of exhausted configs.  ``label`` is a
        human-readable sweep name recorded in distributed job manifests
        (experiment drivers pass their figure/table name).
        """
        configs = list(configs)
        results: List[Any] = [None] * len(configs)
        pending = list(range(len(configs)))
        started = time.perf_counter()
        self.telemetry.batches += 1

        if self.cache is not None:
            missing: List[int] = []
            for i in pending:
                hit, value = self.cache.get(fn, configs[i])
                if hit:
                    results[i] = value
                    self.telemetry.cache_hits += 1
                else:
                    missing.append(i)
                    self.telemetry.cache_misses += 1
            pending = missing

        # One sweep span roots this batch's replication spans.  The id
        # derives from the batch counter alone (placement-independent);
        # in-node runners adopt the coordinator's id via ``span_context``
        # and emit no sweep span of their own.
        collector = get_span_collector()
        sweep_id = self.span_context or sweep_span_id(self.telemetry.batches - 1)
        own_sweep = collector is not None and self.span_context is None
        sweep_status = "ok"
        try:
            if pending:
                obs = self._obs_request()
                computed = self._execute(
                    fn, [configs[i] for i in pending], pending, obs,
                    label=label, span_parent=sweep_id,
                )
                for i, (value, _snapshot) in zip(pending, computed):
                    results[i] = value
                    if self.cache is not None and not isinstance(value, FailedResult):
                        self.cache.put(fn, configs[i], value)
                if obs is not None:
                    self._merge_observations(pending, computed)
        except BaseException:
            sweep_status = "failed"
            raise
        finally:
            elapsed = time.perf_counter() - started
            self.telemetry.elapsed += elapsed
            if own_sweep:
                assert collector is not None
                collector.emit(
                    Span(
                        span_id=sweep_id,
                        parent_id=None,
                        name=label or "sweep",
                        kind=KIND_SWEEP,
                        status=sweep_status,
                        start=started,
                        duration=elapsed,
                        attrs={"configs": len(configs), "label": label},
                    )
                )
        return results

    # -- observability plumbing -------------------------------------------

    def _obs_request(self) -> Optional[ObsRequest]:
        """The per-batch observation request, or None when nothing is on.

        Mirrors whatever the coordinator has installed *right now*: a
        tracer means workers trace (honoring its kind filter), a non-null
        registry means workers meter.
        """
        tracer = get_tracer()
        registry = get_registry()
        want_metrics = not isinstance(registry, NullRegistry)
        want_trace = tracer is not None
        want_profile = self.profile
        if not (want_metrics or want_trace or want_profile):
            return None
        kinds = (
            frozenset(tracer.kinds)
            if want_trace and tracer.kinds is not None
            else None
        )
        return ObsRequest(
            metrics=want_metrics,
            trace=want_trace,
            trace_kinds=kinds,
            ring_capacity=self.trace_capacity,
            profile=want_profile,
        )

    def _merge_observations(
        self,
        indices: List[int],
        computed: List[Tuple[Any, Optional[ObsSnapshot]]],
    ) -> None:
        """Fold per-replication snapshots into the installed collectors.

        Deterministic by construction: ``indices`` ascend in submission
        order, metrics merge commutes for counters/histograms and adopts
        the last gauge write, and trace records replay in capture order
        stamped with their replication index.
        """
        tracer = get_tracer()
        registry = get_registry()
        merge_metrics = not isinstance(registry, NullRegistry)
        for index, (_value, snapshot) in zip(indices, computed):
            if snapshot is None:
                continue
            if merge_metrics and snapshot.metrics is not None:
                registry.merge_snapshot(snapshot.metrics)
            if tracer is not None and snapshot.records is not None:
                self.telemetry.trace_records += replay_records(
                    tracer, snapshot.records, replication=index
                )
                self.telemetry.trace_dropped += snapshot.dropped
            if snapshot.profile:
                merge_profile_stats(self._profile_stats, snapshot.profile)

    def _progress(self) -> None:
        """Invoke the heartbeat callback after a replication settles."""
        if self.on_progress is not None:
            self.on_progress(self.telemetry)

    # -- backends ---------------------------------------------------------

    def _execute(
        self,
        fn: Callable[[Any], Any],
        configs: List[Any],
        indices: List[int],
        obs: Optional[ObsRequest],
        label: Optional[str] = None,
        span_parent: Optional[str] = None,
    ) -> List[Tuple[Any, Optional[ObsSnapshot]]]:
        if self.backend == "distributed":
            from .distributed import DistributedCoordinator

            return DistributedCoordinator(self).execute(
                fn, configs, indices, obs, label=label, span_parent=span_parent
            )
        collector = get_span_collector()
        if collector is not None and span_parent is not None:
            self._span_ledger = SpanLedger(collector, span_parent)
        try:
            if self.backend == "process":
                return self._run_process(fn, configs, indices, obs)
            return self._run_serial(fn, configs, indices, obs)
        finally:
            self._span_ledger = None

    def _settle(
        self, config: Any, index: int, attempts: int, message: _Message
    ) -> Optional[Tuple[Any, Optional[ObsSnapshot]]]:
        """Apply the failure policy to one finished attempt.

        Returns the config's ``(value, snapshot)`` slot once it is settled
        (its result, or a :class:`FailedResult` under ``partial``), None
        when it should be retried, and raises :class:`WorkerError` once
        its attempts are exhausted otherwise.
        """
        ok, value, elapsed, events, cores, snapshot = message
        ledger = self._span_ledger
        if ok:
            if ledger is not None:
                ledger.attempt(index, "ok", elapsed)
                ledger.settle(index, "ok")
            self.telemetry.record_replication(elapsed, events, cores)
            self._progress()
            return value, snapshot
        cause, tb = value
        if isinstance(cause, ReplicationTimeout):
            self.telemetry.timeouts += 1
            status = "timeout"
        elif isinstance(cause, WorkerCrash):
            self.telemetry.crashes += 1
            status = "crash"
        else:
            status = "error"
        if ledger is not None:
            ledger.attempt(index, status, elapsed)
        if attempts <= self.max_retries:
            self.telemetry.retries += 1
            return None
        self.telemetry.failures += 1
        if ledger is not None:
            ledger.settle(index, "failed")
        self._progress()
        if self.partial:
            return FailedResult(config, index, attempts, repr(cause), tb), None
        raise WorkerError(config, index, cause, tb, attempts=attempts) from cause

    def _backoff_delay(self, failed_attempts: int) -> float:
        """Seconds to wait after the ``failed_attempts``-th failure."""
        return self.retry_backoff * (2.0 ** (failed_attempts - 1))

    def _attempt_with_alarm(self, payload: _Payload) -> _Message:
        """One in-process attempt, interrupted by SIGALRM at ``timeout``
        (which needs a main-thread POSIX coordinator)."""
        limit = self.timeout
        if (
            limit is None
            or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()
        ):
            return _attempt(payload)

        def _on_alarm(signum: int, frame: Any) -> None:
            raise ReplicationTimeout(
                f"replication exceeded {limit}s wall-clock timeout"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return _attempt(payload)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _run_serial(
        self,
        fn: Callable[[Any], Any],
        configs: List[Any],
        indices: List[int],
        obs: Optional[ObsRequest],
    ) -> List[Tuple[Any, Optional[ObsSnapshot]]]:
        """Attempt each config in-process; settle; retry after backoff."""
        out: List[Tuple[Any, Optional[ObsSnapshot]]] = []
        for config, index in zip(configs, indices):
            attempts = 0
            while True:
                attempts += 1
                message = self._attempt_with_alarm((fn, config, obs))
                settled = self._settle(config, index, attempts, message)
                if settled is not None:
                    out.append(settled)
                    break
                delay = self._backoff_delay(attempts)
                if delay > 0:
                    self._sleep(delay)
        return out

    def _run_process(
        self,
        fn: Callable[[Any], Any],
        configs: List[Any],
        indices: List[int],
        obs: Optional[ObsRequest],
    ) -> List[Tuple[Any, Optional[ObsSnapshot]]]:
        """Attempt configs in up to ``jobs`` long-lived worker processes.

        Each worker sits on a private duplex pipe and holds one attempt at
        a time.  Pipe EOF is a crash of exactly the config the worker held;
        a passed deadline terminates the worker.  Either way the worker is
        reaped and a fresh one takes its place.  An idle worker takes the
        next runnable config, or a retried one once its backoff expires.
        """
        n = len(configs)
        slots = min(self.jobs, n)
        results: List[Tuple[Any, Optional[ObsSnapshot]]] = [(None, None)] * n
        attempts = [0] * n
        runnable: Deque[int] = deque(range(n))
        delayed: List[Tuple[float, int]] = []  # (eligible_at, position) heap
        idle: List[Tuple[Any, Connection]] = []  # (process, pipe)
        # pipe -> (process, position, deadline, started_at)
        busy: Dict[Connection, Tuple[Any, int, Optional[float], float]] = {}
        done = 0

        def spawn() -> Tuple[Any, Connection]:
            conn, child_conn = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_worker_main, args=(child_conn, conn), daemon=True
            )
            proc.start()
            child_conn.close()  # the worker's death now EOFs our end
            return proc, conn

        def settle(pos: int, message: _Message) -> None:
            nonlocal done
            settled = self._settle(configs[pos], indices[pos], attempts[pos], message)
            if settled is not None:
                results[pos] = settled
                done += 1
                return
            delay = self._backoff_delay(attempts[pos])
            if delay > 0:
                heappush(delayed, (self._clock() + delay, pos))
            else:
                runnable.append(pos)

        def dispatch(worker: Tuple[Any, Connection], pos: int) -> None:
            proc, conn = worker
            attempts[pos] += 1
            try:
                conn.send((fn, configs[pos], obs))
            except Exception as exc:  # unpicklable payload, or a dead worker
                if proc.is_alive():
                    idle.append(worker)
                else:
                    _reap(proc)
                    conn.close()
                settle(pos, _failure(exc, traceback.format_exc(), 0.0))
                return
            now = self._clock()
            deadline = now + self.timeout if self.timeout is not None else None
            busy[conn] = (proc, pos, deadline, now)

        try:
            while done < n:
                now = self._clock()
                while delayed and delayed[0][0] <= now:
                    runnable.append(heappop(delayed)[1])
                while runnable and (idle or len(busy) < slots):
                    dispatch(idle.pop() if idle else spawn(), runnable.popleft())
                if not busy:
                    if delayed:
                        self._sleep(max(0.0, delayed[0][0] - self._clock()))
                    continue

                waits = [
                    deadline - now
                    for (_proc, _pos, deadline, _started) in busy.values()
                    if deadline is not None
                ]
                if delayed:
                    waits.append(delayed[0][0] - now)
                poll = max(0.0, min(waits)) if waits else None

                for conn in _connection_wait(list(busy), timeout=poll):
                    proc, pos, _deadline, started = busy.pop(conn)  # type: ignore[arg-type]
                    try:
                        message = conn.recv()  # type: ignore[union-attr]
                    except (EOFError, OSError):
                        proc.join()
                        conn.close()  # type: ignore[union-attr]
                        settle(pos, _failure(
                            WorkerCrash(
                                f"worker process died with exit code {proc.exitcode}"
                            ),
                            "",
                            self._clock() - started,
                        ))
                        continue
                    except Exception as exc:  # a report that won't unpickle here
                        message = _failure(
                            exc, traceback.format_exc(), self._clock() - started
                        )
                    idle.append((proc, conn))  # type: ignore[arg-type]
                    settle(pos, message)

                now = self._clock()
                expired = [
                    conn
                    for conn, (_proc, _pos, deadline, _started) in busy.items()
                    if deadline is not None and deadline <= now
                ]
                for conn in expired:
                    proc, pos, _deadline, started = busy.pop(conn)
                    _reap(proc)
                    conn.close()
                    settle(pos, _failure(
                        ReplicationTimeout(
                            f"replication exceeded {self.timeout}s wall-clock "
                            "timeout; worker cancelled"
                        ),
                        "",
                        now - started,
                    ))
        finally:
            for conn, (proc, _pos, _deadline, _started) in busy.items():
                _reap(proc)
                conn.close()
            for _proc, conn in idle:
                try:
                    conn.send(None)
                except OSError:
                    pass  # already dead; the join below reaps it
            for proc, conn in idle:
                proc.join()
                conn.close()
        return results
