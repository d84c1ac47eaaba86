"""Distributed sweep backend: manifest sharding, node workers, merge.

A distributed run turns one ``run_many`` batch into a small filesystem
protocol inside a **run directory** keyed by the sweep's content hash:

``manifest.json``
    The shard plan — the sweep id (a digest over the worker function's
    namespace and every config's content digest), plus the list of chunks,
    each an ordered slice of replication positions with their config
    digests.  The manifest is pure data: byte-identical across
    interpreters, node counts, and ``PYTHONHASHSEED`` values, so any
    re-submission of the same sweep lands in the same directory.
``payload.pkl``
    The executable half: the worker function (pickled by reference), the
    pending configs in manifest order, the observation request, and the
    node-side runner options (retries/timeout/partial/jobs).
``results/chunk-<id>.pkl``
    One atomically-published file per completed chunk, written by
    whichever node executed it: results, observability snapshots, and
    per-replication telemetry.  File existence *is* chunk completion —
    resume and crash recovery are both "list the missing chunk files".
``errors/node-<k>.json``
    A node that hit an unrecoverable *config* failure (as opposed to
    dying) reports it here so the coordinator can re-raise a
    :class:`~repro.runtime.runner.WorkerError` with full context.
``progress/<name>.json``
    Atomically-rewritten heartbeat documents: each node maintains
    ``node-<k>.json`` (state, chunks done, replication counts, DES
    throughput) as replications settle, and the coordinator maintains
    ``coordinator.json`` with sweep-level state.  ``python -m repro
    monitor`` reads only this directory plus the manifest.
``spans/node-<k>.jsonl``
    Append-only per-node span log (chunk, replication, and attempt
    spans) for live inspection while a node runs.  The authoritative
    span copies ride inside the chunk result files, where the
    coordinator merges them by manifest position — see
    :mod:`repro.obs.spans`.

The coordinator shards chunks across ``nodes`` workers, launches them
through a pluggable :class:`NodeTransport` (local subprocesses today; an
SSH transport slots into the same seam), and waits.  Nodes that die or
stall are reaped, their surviving chunk files kept, and the still-missing
chunks re-sharded across a fresh round of nodes — up to
``max_node_restarts`` rounds, after which :class:`DistributedRunError`
surfaces with the run directory preserved for a later resume.  The merge
reads chunk files in chunk-id order and scatters values back into
submission positions, so merged output is bit-identical to a serial run
regardless of node count, completion order, or how many rounds it took.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs.spans import (
    KIND_CHUNK,
    KIND_NODE,
    Span,
    SpanCollector,
    chunk_span_id,
    get_span_collector,
    node_span_id,
    rebase_span_record,
    set_span_collector,
    span_from_record,
    span_to_record,
)
from .cache import config_key

if TYPE_CHECKING:
    from .runner import ExperimentRunner, ObsRequest, ObsSnapshot

__all__ = [
    "CHUNKS_PER_NODE",
    "MANIFEST_VERSION",
    "RUN_ROOT_ENV",
    "ChunkResult",
    "ChunkSpec",
    "DistributedCoordinator",
    "DistributedRunError",
    "LocalSubprocessTransport",
    "NodeHandle",
    "NodeLaunchSpec",
    "NodeTransport",
    "ShardPlan",
    "assign_chunks",
    "default_run_root",
    "load_manifest",
    "merge_chunk_results",
    "node_spans_path",
    "plan_shards",
    "progress_path",
    "read_progress_docs",
    "sweep_id_for",
    "write_manifest",
    "write_progress_doc",
]

#: Bump when the manifest or chunk-file format changes; old run
#: directories are then simply never matched (fresh sweep ids).
#: Version 2: chunk result files carry per-replication span records.
MANIFEST_VERSION = 2

#: Target chunks per node: small enough that a crashed node forfeits only
#: a slice of its assignment, large enough that per-chunk file overhead
#: stays negligible.
CHUNKS_PER_NODE = 4

#: Environment override for where run directories live.
RUN_ROOT_ENV = "REPRO_DISTRIBUTED_DIR"


def default_run_root() -> Path:
    """``benchmarks/.distrun`` in the checkout (or ``$REPRO_DISTRIBUTED_DIR``)."""
    override = os.environ.get(RUN_ROOT_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks" / ".distrun"


class DistributedRunError(RuntimeError):
    """The coordinator ran out of node-restart rounds with chunks missing.

    The run directory is left intact: re-submitting the same sweep resumes
    from the completed chunk files.
    """

    def __init__(self, message: str, run_dir: Path, missing: Sequence[int]):
        super().__init__(message)
        self.run_dir = run_dir
        self.missing = tuple(missing)


# -- shard planning --------------------------------------------------------


@dataclass(frozen=True)
class ChunkSpec:
    """One shard: a contiguous run of sweep positions plus their digests."""

    chunk_id: int
    indices: Tuple[int, ...]
    keys: Tuple[str, ...]


@dataclass(frozen=True)
class ShardPlan:
    """The full manifest: sweep identity plus its chunk decomposition."""

    sweep_id: str
    namespace: str
    label: Optional[str]
    chunks: Tuple[ChunkSpec, ...]

    @property
    def positions(self) -> int:
        return sum(len(c.indices) for c in self.chunks)


def sweep_id_for(namespace: str, keys: Sequence[str]) -> str:
    """Content digest identifying a sweep: worker namespace + config digests.

    Deliberately *excludes* the node count and chunking parameters in its
    inputs' semantics: resubmitting with a different ``--nodes N`` must
    still find the same run directory and resume its chunk files.  (The
    chunk decomposition itself is a pure function of the key count, so it
    is reproduced identically anyway.)
    """
    blob = json.dumps(
        {"version": MANIFEST_VERSION, "namespace": namespace, "keys": list(keys)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def plan_shards(
    namespace: str,
    keys: Sequence[str],
    nodes: int,
    label: Optional[str] = None,
    chunks_per_node: int = CHUNKS_PER_NODE,
) -> ShardPlan:
    """Partition sweep positions ``0..len(keys)-1`` into balanced chunks.

    Every position lands in exactly one chunk, chunks are contiguous (the
    merge is a scatter in chunk-id order), and chunk sizes differ by at
    most one — the first ``n % k`` chunks absorb the remainder.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    if chunks_per_node < 1:
        raise ValueError(f"chunks_per_node must be >= 1, got {chunks_per_node}")
    n = len(keys)
    k = min(n, nodes * chunks_per_node)
    chunks: List[ChunkSpec] = []
    start = 0
    for chunk_id in range(k):
        size = n // k + (1 if chunk_id < n % k else 0)
        indices = tuple(range(start, start + size))
        chunks.append(
            ChunkSpec(
                chunk_id=chunk_id,
                indices=indices,
                keys=tuple(keys[i] for i in indices),
            )
        )
        start += size
    return ShardPlan(
        sweep_id=sweep_id_for(namespace, keys),
        namespace=namespace,
        label=label,
        chunks=tuple(chunks),
    )


def assign_chunks(chunk_ids: Sequence[int], nodes: int) -> List[Tuple[int, ...]]:
    """Deal ``chunk_ids`` round-robin across ``nodes``; loads differ by <= 1.

    Nodes beyond the chunk count receive empty assignments (and are not
    launched).
    """
    buckets: List[List[int]] = [[] for _ in range(nodes)]
    for pos, chunk_id in enumerate(sorted(chunk_ids)):
        buckets[pos % nodes].append(chunk_id)
    return [tuple(b) for b in buckets]


def merge_chunk_results(
    plan: ShardPlan, by_chunk: Dict[int, Sequence[Any]]
) -> List[Any]:
    """Scatter per-chunk result lists back into sweep-position order.

    Deterministic regardless of the order chunks completed in: output slot
    ``i`` is filled from whichever chunk owns position ``i``, and chunk
    ownership is fixed by the plan.
    """
    out: List[Any] = [None] * plan.positions
    for chunk in plan.chunks:
        values = by_chunk[chunk.chunk_id]
        if len(values) != len(chunk.indices):
            raise ValueError(
                f"chunk {chunk.chunk_id} carries {len(values)} results "
                f"for {len(chunk.indices)} positions"
            )
        for position, value in zip(chunk.indices, values):
            out[position] = value
    return out


# -- manifest / run-directory I/O ------------------------------------------


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def manifest_bytes(plan: ShardPlan) -> bytes:
    """The canonical JSON encoding of a plan (what lands on disk)."""
    doc = {
        "version": MANIFEST_VERSION,
        "sweep_id": plan.sweep_id,
        "namespace": plan.namespace,
        "label": plan.label,
        "chunks": [
            {
                "id": chunk.chunk_id,
                "indices": list(chunk.indices),
                "keys": list(chunk.keys),
            }
            for chunk in plan.chunks
        ],
    }
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def write_manifest(run_dir: Path, plan: ShardPlan) -> Path:
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "manifest.json"
    _atomic_write_bytes(path, manifest_bytes(plan))
    return path


def load_manifest(run_dir: Union[str, Path]) -> Optional[ShardPlan]:
    """The plan recorded in ``run_dir``, or None when absent/unreadable."""
    path = Path(run_dir) / "manifest.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if doc.get("version") != MANIFEST_VERSION:
        return None
    return ShardPlan(
        sweep_id=doc["sweep_id"],
        namespace=doc["namespace"],
        label=doc.get("label"),
        chunks=tuple(
            ChunkSpec(
                chunk_id=c["id"],
                indices=tuple(c["indices"]),
                keys=tuple(c["keys"]),
            )
            for c in doc["chunks"]
        ),
    )


@dataclass
class ChunkResult:
    """What one node publishes for one completed chunk."""

    chunk_id: int
    node_id: int
    round_: int
    #: Result values in chunk-position order.
    results: List[Any]
    #: Per-replication observability snapshots (aligned; None when off).
    snapshots: List[Optional["ObsSnapshot"]]
    #: Per-replication wall seconds measured inside the node.
    wall_times: List[float]
    #: DES events processed across the chunk's replications.
    des_events: int = 0
    #: Those events broken down by kernel core (``{"pure": n}`` etc.);
    #: empty in chunk files written before the compiled core existed.
    des_cores: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    failures: int = 0
    #: Span records (chunk + replication + attempt) captured while the
    #: chunk executed, in node-local manifest positions.  The coordinator
    #: rebases them (:func:`repro.obs.spans.rebase_span_record`) into the
    #: current submission's indices at merge time, so spans survive
    #: resume exactly like results do.
    spans: List[Dict[str, Any]] = field(default_factory=list)


def chunk_result_path(run_dir: Union[str, Path], chunk_id: int) -> Path:
    return Path(run_dir) / "results" / f"chunk-{chunk_id:05d}.pkl"


def write_chunk_result(run_dir: Union[str, Path], result: ChunkResult) -> Path:
    path = chunk_result_path(run_dir, result.chunk_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_bytes(path, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    return path


def load_chunk_result(
    run_dir: Union[str, Path], chunk_id: int
) -> Optional[ChunkResult]:
    """Read one chunk file; corrupt/truncated files read as missing."""
    path = chunk_result_path(run_dir, chunk_id)
    try:
        with open(path, "rb") as fh:
            value = pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception:
        try:
            path.unlink()  # dead weight: a re-run will republish it
        except OSError:
            pass
        return None
    if not isinstance(value, ChunkResult) or value.chunk_id != chunk_id:
        return None
    return value


def completed_chunk_ids(run_dir: Union[str, Path], plan: ShardPlan) -> List[int]:
    """Chunk ids whose result files exist and match the plan's shape."""
    done: List[int] = []
    for chunk in plan.chunks:
        result = load_chunk_result(run_dir, chunk.chunk_id)
        if result is not None and len(result.results) == len(chunk.indices):
            done.append(chunk.chunk_id)
    return done


def write_payload(
    run_dir: Path,
    fn: Callable[[Any], Any],
    configs: Sequence[Any],
    obs: Optional["ObsRequest"],
    node_options: Dict[str, Any],
) -> Path:
    """Publish the executable half of the sweep for node workers."""
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "payload.pkl"
    blob = pickle.dumps(
        {
            "version": MANIFEST_VERSION,
            "fn": fn,
            "configs": list(configs),
            "obs": obs,
            "node_options": node_options,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    _atomic_write_bytes(path, blob)
    return path


def load_payload(run_dir: Union[str, Path]) -> Dict[str, Any]:
    with open(Path(run_dir) / "payload.pkl", "rb") as fh:
        payload = pickle.load(fh)
    if payload.get("version") != MANIFEST_VERSION:
        raise RuntimeError(
            f"payload version {payload.get('version')!r} does not match "
            f"this coordinator ({MANIFEST_VERSION})"
        )
    return payload


def node_error_path(run_dir: Union[str, Path], node_id: int) -> Path:
    return Path(run_dir) / "errors" / f"node-{node_id}.json"


def write_node_error(
    run_dir: Union[str, Path], node_id: int, detail: Dict[str, Any]
) -> Path:
    path = node_error_path(run_dir, node_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_bytes(
        path, (json.dumps(detail, sort_keys=True) + "\n").encode("utf-8")
    )
    return path


def read_node_errors(run_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    errors_dir = Path(run_dir) / "errors"
    found: List[Dict[str, Any]] = []
    if not errors_dir.is_dir():
        return found
    for path in sorted(errors_dir.glob("node-*.json")):
        try:
            found.append(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError):
            continue
    return found


# -- heartbeats / live span files ------------------------------------------


def progress_path(run_dir: Union[str, Path], name: str) -> Path:
    """The heartbeat file for ``name`` (``coordinator`` or ``node-<k>``)."""
    return Path(run_dir) / "progress" / f"{name}.json"


def write_progress_doc(
    run_dir: Union[str, Path], name: str, doc: Dict[str, Any]
) -> Path:
    """Atomically publish one heartbeat document (readers never see a
    partial write — the same tmp-then-rename protocol chunk files use)."""
    path = progress_path(run_dir, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_bytes(
        path, (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    )
    return path


def read_progress_docs(run_dir: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """All heartbeat documents by name; unreadable files are skipped.

    A half-gone file (node died mid-rename, monitor raced a rewrite) reads
    as absent rather than failing the whole status scan.
    """
    docs: Dict[str, Dict[str, Any]] = {}
    progress_dir = Path(run_dir) / "progress"
    if not progress_dir.is_dir():
        return docs
    for path in sorted(progress_dir.glob("*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict):
            docs[path.stem] = doc
    return docs


def node_spans_path(run_dir: Union[str, Path], node_id: int) -> Path:
    """The append-only live span JSONL a node writes as chunks finish."""
    return Path(run_dir) / "spans" / f"node-{node_id}.jsonl"


# -- transports ------------------------------------------------------------


@dataclass(frozen=True)
class NodeLaunchSpec:
    """Everything a transport needs to start one node worker."""

    run_dir: Path
    node_id: int
    round_: int
    chunk_ids: Tuple[int, ...]


class NodeHandle:
    """A launched node as the coordinator sees it."""

    node_id: int
    round_: int
    chunk_ids: Tuple[int, ...]

    def poll(self) -> Optional[int]:
        """Exit code when the node has finished, else None."""
        raise NotImplementedError

    def terminate(self) -> None:
        """Forcibly stop the node (idempotent)."""
        raise NotImplementedError


class NodeTransport:
    """Seam between the coordinator and wherever nodes actually run.

    :class:`LocalSubprocessTransport` is the hermetic implementation every
    test exercises; a remote transport only has to start the same
    ``repro.runtime.node_worker`` module against a shared run directory
    (or a synced copy of it) and report process exit.
    """

    def launch(self, spec: NodeLaunchSpec) -> NodeHandle:
        raise NotImplementedError


class _SubprocessHandle(NodeHandle):
    def __init__(self, proc: "subprocess.Popen[bytes]", spec: NodeLaunchSpec):
        self._proc = proc
        self.node_id = spec.node_id
        self.round_ = spec.round_
        self.chunk_ids = spec.chunk_ids

    def poll(self) -> Optional[int]:
        return self._proc.poll()

    def terminate(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(1.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


class LocalSubprocessTransport(NodeTransport):
    """Run nodes as local ``python -m repro.runtime.node_worker`` children.

    The child inherits this interpreter and the coordinator's ``sys.path``
    (via ``PYTHONPATH``), so worker functions defined in any importable
    module — including test modules — unpickle cleanly on the node.
    """

    def __init__(self, python: Optional[str] = None):
        self.python = python or sys.executable

    def launch(self, spec: NodeLaunchSpec) -> NodeHandle:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        argv = [
            self.python,
            "-m",
            "repro.runtime.node_worker",
            "--run-dir",
            str(spec.run_dir),
            "--node",
            str(spec.node_id),
            "--round",
            str(spec.round_),
            "--chunks",
            ",".join(str(c) for c in spec.chunk_ids),
        ]
        proc = subprocess.Popen(argv, env=env)
        return _SubprocessHandle(proc, spec)


# -- coordinator -----------------------------------------------------------

#: Seconds between poll sweeps while nodes are running.
_POLL_INTERVAL = 0.05


class DistributedCoordinator:
    """Drives one distributed ``run_many`` batch for an ExperimentRunner.

    The runner owns policy (node count, restart budget, timeouts, run
    root); the coordinator owns the protocol (manifest, launch, watch,
    re-shard, merge).  It reports everything it did into the runner's
    :class:`~repro.obs.telemetry.RunTelemetry`.
    """

    def __init__(self, runner: "ExperimentRunner"):
        self.runner = runner
        self.transport = runner.node_transport or LocalSubprocessTransport()
        self._plan: Optional[ShardPlan] = None
        self._span_parent: Optional[str] = None
        self._collector: Optional[SpanCollector] = None
        self._resumed_count = 0
        self._round = 0
        self._nodes_running = 0
        self._started_wall = 0.0
        self._hb_last = float("-inf")

    # The runner's _execute contract: List[(value, snapshot)] in the order
    # of the ``configs``/``indices`` it was handed.
    def execute(
        self,
        fn: Callable[[Any], Any],
        configs: List[Any],
        indices: List[int],
        obs: Optional["ObsRequest"],
        label: Optional[str] = None,
        span_parent: Optional[str] = None,
    ) -> List[Tuple[Any, Optional["ObsSnapshot"]]]:
        from .cache import _namespace  # worker-function namespace helper
        from .runner import FailedResult

        runner = self.runner
        namespace = _namespace(fn)
        keys = [config_key(config) for config in configs]
        plan = plan_shards(namespace, keys, runner.nodes, label=label)
        run_dir = Path(runner.run_root or default_run_root()) / plan.sweep_id[:16]

        existing = load_manifest(run_dir)
        if existing is not None and existing.sweep_id == plan.sweep_id:
            plan = existing  # adopt: completed chunk files stay valid
        else:
            write_manifest(run_dir, plan)
        write_payload(
            run_dir,
            fn,
            configs,
            obs,
            node_options={
                "jobs": runner.node_jobs,
                "max_retries": runner.max_retries,
                "retry_backoff": runner.retry_backoff,
                "timeout": runner.timeout,
                "partial": runner.partial,
                "trace_capacity": runner.trace_capacity,
                "profile": runner.profile,
                # Nodes parent their replication spans directly under the
                # coordinator's sweep span, so the merged structure is the
                # same tree a serial run would have built.
                "span_sweep": span_parent,
            },
        )

        # Stale error reports from an earlier submission would otherwise be
        # re-raised even though this submission may succeed; each round
        # consults only errors its own nodes just wrote.
        for stale in (run_dir / "errors").glob("node-*.json"):
            try:
                stale.unlink()
            except OSError:
                pass

        resumed = set(completed_chunk_ids(run_dir, plan))
        runner.telemetry.chunks_resumed += len(resumed)
        missing = [c.chunk_id for c in plan.chunks if c.chunk_id not in resumed]

        self._plan = plan
        self._span_parent = span_parent
        self._collector = get_span_collector()
        self._resumed_count = len(resumed)
        self._started_wall = time.time()
        self._heartbeat(run_dir, "running", force=True)

        try:
            rounds = 0
            while missing:
                if rounds > runner.max_node_restarts:
                    raise DistributedRunError(
                        f"{len(missing)} chunk(s) still missing after "
                        f"{rounds} node round(s); run directory {run_dir} kept "
                        f"for resume",
                        run_dir=run_dir,
                        missing=missing,
                    )
                if rounds:
                    runner.telemetry.node_restarts += 1
                self._round = rounds
                self._run_round(run_dir, missing, rounds)
                self._raise_node_errors(run_dir, fn, configs, indices)
                done = set(completed_chunk_ids(run_dir, plan))
                missing = [c for c in missing if c not in done]
                rounds += 1

            merged = self._merge(run_dir, plan, indices, resumed, FailedResult)
        except BaseException:
            self._heartbeat(run_dir, "failed", force=True)
            raise
        self._heartbeat(run_dir, "done", force=True)
        return merged

    def _heartbeat(self, run_dir: Path, state: str, force: bool = False) -> None:
        """Publish the coordinator's progress document (throttled).

        ``started_at``/``updated_at`` are wall-clock stamps so a monitor in
        another process can judge staleness; every duration the runtime
        itself reasons about stays on the monotonic clock.
        """
        plan = self._plan
        if plan is None:
            return
        now = self.runner._clock()
        if not force and now - self._hb_last < 0.5:
            return
        self._hb_last = now
        chunks_done = sum(
            1
            for c in plan.chunks
            if chunk_result_path(run_dir, c.chunk_id).exists()
        )
        doc = {
            "version": 1,
            "kind": "coordinator",
            "state": state,
            "sweep_id": plan.sweep_id,
            "label": plan.label,
            "namespace": plan.namespace,
            "chunks_total": len(plan.chunks),
            "chunks_done": chunks_done,
            "chunks_resumed": self._resumed_count,
            "replications_total": plan.positions,
            "round": self._round,
            "nodes_running": self._nodes_running,
            "pid": os.getpid(),
            "started_at": self._started_wall,
            "updated_at": time.time(),
        }
        try:
            write_progress_doc(run_dir, "coordinator", doc)
        except OSError:
            pass  # heartbeats are best-effort; the sweep itself must not die

    def _node_span(self, handle: NodeHandle, status: str, wall: float) -> None:
        """Emit the topology span for a finished/terminated node round."""
        if self._collector is None or self._span_parent is None:
            return
        self._collector.emit(
            Span(
                span_id=node_span_id(handle.node_id, handle.round_),
                parent_id=self._span_parent,
                name=f"node {handle.node_id} round {handle.round_}",
                kind=KIND_NODE,
                status=status,
                start=time.perf_counter() - wall,
                duration=wall,
                attrs={
                    "chunks": list(handle.chunk_ids),
                    "node": handle.node_id,
                    "round": handle.round_,
                },
            )
        )

    # -- one launch round --------------------------------------------------

    def _run_round(
        self, run_dir: Path, chunk_ids: Sequence[int], round_: int
    ) -> None:
        runner = self.runner
        clock = runner._clock
        assignments = assign_chunks(chunk_ids, runner.nodes)
        handles: List[NodeHandle] = []
        started: Dict[int, float] = {}
        progress: Dict[int, Tuple[int, float]] = {}  # node -> (files, at)
        for node_id, assigned in enumerate(assignments):
            if not assigned:
                continue
            spec = NodeLaunchSpec(
                run_dir=run_dir,
                node_id=node_id,
                round_=round_,
                chunk_ids=assigned,
            )
            handles.append(self.transport.launch(spec))
            started[node_id] = clock()
            progress[node_id] = (0, clock())
            runner.telemetry.nodes += 1
        self._nodes_running = len(handles)
        try:
            self._watch(run_dir, handles, started, progress)
        finally:
            self._nodes_running = 0
            for handle in handles:
                handle.terminate()

    def _watch(
        self,
        run_dir: Path,
        handles: List[NodeHandle],
        started: Dict[int, float],
        progress: Dict[int, Tuple[int, float]],
    ) -> None:
        """Wait for every node of a round to exit, stalling none forever.

        ``node_timeout`` (when set) bounds the time a node may go without
        publishing a new chunk file; a stalled node is terminated and its
        missing chunks fall through to the next round's re-shard.
        """
        runner = self.runner
        clock = runner._clock
        running = list(handles)
        while running:
            still: List[NodeHandle] = []
            for handle in running:
                code = handle.poll()
                if code is not None:
                    wall = clock() - started[handle.node_id]
                    runner.telemetry.node_wall_times.append(wall)
                    if code != 0:
                        runner.telemetry.crashes += 1
                    self._node_span(
                        handle, "ok" if code == 0 else "crashed", wall
                    )
                    continue
                if runner.node_timeout is not None:
                    files = sum(
                        1
                        for c in handle.chunk_ids
                        if chunk_result_path(run_dir, c).exists()
                    )
                    last_files, last_at = progress[handle.node_id]
                    if files > last_files:
                        progress[handle.node_id] = (files, clock())
                    elif clock() - last_at > runner.node_timeout:
                        handle.terminate()
                        runner.telemetry.timeouts += 1
                        wall = clock() - started[handle.node_id]
                        runner.telemetry.node_wall_times.append(wall)
                        self._node_span(handle, "timeout", wall)
                        continue
                still.append(handle)
            self._nodes_running = len(still)
            self._heartbeat(run_dir, "running")
            running = still
            if running:
                runner._sleep(_POLL_INTERVAL)

    def _raise_node_errors(
        self,
        run_dir: Path,
        fn: Callable[[Any], Any],
        configs: List[Any],
        indices: List[int],
    ) -> None:
        """Re-raise a node-reported config failure with coordinator context.

        Only reachable when ``partial`` is off — partial-mode nodes embed
        :class:`FailedResult` sentinels in their chunk files instead.
        """
        from .runner import WorkerError

        errors = read_node_errors(run_dir)
        if not errors:
            return
        detail = errors[0]
        position = int(detail.get("position", 0))
        position = min(max(position, 0), len(configs) - 1)
        self.runner.telemetry.failures += 1
        raise WorkerError(
            configs[position],
            indices[position],
            RuntimeError(detail.get("error", "node-reported failure")),
            detail.get("traceback", ""),
            attempts=int(detail.get("attempts", 1)),
        )

    # -- merge -------------------------------------------------------------

    def _merge(
        self,
        run_dir: Path,
        plan: ShardPlan,
        indices: List[int],
        resumed: set,
        failed_result_type: type,
    ) -> List[Tuple[Any, Optional["ObsSnapshot"]]]:
        runner = self.runner
        values_by_chunk: Dict[int, List[Any]] = {}
        snapshots_by_chunk: Dict[int, List[Optional["ObsSnapshot"]]] = {}
        for chunk in plan.chunks:
            result = load_chunk_result(run_dir, chunk.chunk_id)
            if result is None or len(result.results) != len(chunk.indices):
                raise DistributedRunError(
                    f"chunk {chunk.chunk_id} result file vanished before the "
                    f"merge; run directory {run_dir} kept for resume",
                    run_dir=run_dir,
                    missing=[chunk.chunk_id],
                )
            # Rebase FailedResult sentinels from chunk-local positions to
            # this submission's indices so partial-mode warnings point at
            # the right sweep slot.
            rebased: List[Any] = []
            for position, value in zip(chunk.indices, result.results):
                if isinstance(value, failed_result_type):
                    value = dataclasses.replace(value, index=indices[position])
                rebased.append(value)
            values_by_chunk[chunk.chunk_id] = rebased
            snapshots_by_chunk[chunk.chunk_id] = list(result.snapshots)
            # Replay the chunk's spans — resumed chunks included, so spans
            # from a first, interrupted submission survive exactly like
            # their results do.  Replication/attempt ids are rebased from
            # manifest positions to this submission's indices.
            if self._collector is not None and self._span_parent is not None:
                position_map = {pos: indices[pos] for pos in chunk.indices}
                for record in getattr(result, "spans", ()):
                    self._collector.emit(
                        span_from_record(
                            rebase_span_record(
                                record, position_map, self._span_parent
                            )
                        )
                    )
            if chunk.chunk_id in resumed:
                continue
            # Fold this submission's executed work into run telemetry.
            runner.telemetry.chunks += 1
            for seconds in result.wall_times:
                runner.telemetry.record_replication(seconds)
            runner.telemetry.des_events += result.des_events
            # Chunk files from before the compiled core carry no breakdown.
            cores = getattr(result, "des_cores", None)
            if cores:
                runner.telemetry.record_core_events(cores)
            runner.telemetry.retries += result.retries
            runner.telemetry.timeouts += result.timeouts
            runner.telemetry.crashes += result.crashes
            runner.telemetry.failures += result.failures

        values = merge_chunk_results(plan, values_by_chunk)
        snapshots = merge_chunk_results(plan, snapshots_by_chunk)
        return list(zip(values, snapshots))


# -- node-side execution (used by repro.runtime.node_worker) ---------------


def run_node_chunks(
    run_dir: Union[str, Path],
    node_id: int,
    round_: int,
    chunk_ids: Sequence[int],
) -> int:
    """Execute the given chunks in this process; returns an exit code.

    This is the body of ``python -m repro.runtime.node_worker``.  Each
    chunk runs through a fresh in-node :class:`ExperimentRunner`
    (inheriting the coordinator's fault-tolerance options), publishes its
    result file atomically, and then consults the scripted node-fault
    plan — so a ``kill`` fault leaves exactly the completed files behind,
    like a real mid-sweep power loss would.

    While running, the node maintains two observability surfaces in the
    run directory: an atomically-rewritten ``progress/node-<k>.json``
    heartbeat updated as replications settle, and an append-only
    ``spans/node-<k>.jsonl`` span log.  Each chunk's spans are captured
    in a private per-chunk :class:`~repro.obs.spans.SpanCollector`
    (parented under the coordinator's sweep span) and shipped inside the
    chunk result file, so they resume with it.
    """
    from .faults import maybe_fire_node_fault
    from .runner import ExperimentRunner, WorkerError

    run_dir = Path(run_dir)
    started_wall = time.time()
    totals = {
        "replications": 0,
        "failures": 0,
        "retries": 0,
        "timeouts": 0,
        "crashes": 0,
        "des_events": 0,
        "des_cores": {},
        "wall_time_total": 0.0,
    }
    completed = 0
    last_publish = [float("-inf")]

    def publish(
        state: str,
        current_chunk: Optional[int] = None,
        telemetry: Any = None,
        current_total: int = 0,
        jobs: int = 1,
        force: bool = False,
    ) -> None:
        now = time.monotonic()
        if not force and now - last_publish[0] < 0.2:
            return
        last_publish[0] = now
        current_done = telemetry.replications if telemetry is not None else 0
        des_cores: Dict[str, int] = dict(totals["des_cores"])
        if telemetry is not None:
            for core, n in telemetry.des_cores.items():
                des_cores[core] = des_cores.get(core, 0) + n
        doc = {
            "version": 1,
            "kind": "node",
            "node": node_id,
            "round": round_,
            "pid": os.getpid(),
            "jobs": jobs,
            "state": state,
            "chunks_assigned": len(chunk_ids),
            "chunks_done": completed,
            "current_chunk": current_chunk,
            "current_total": current_total,
            "current_done": current_done,
            "replications": totals["replications"] + current_done,
            "failures": totals["failures"]
            + (telemetry.failures if telemetry is not None else 0),
            "retries": totals["retries"]
            + (telemetry.retries if telemetry is not None else 0),
            "timeouts": totals["timeouts"]
            + (telemetry.timeouts if telemetry is not None else 0),
            "crashes": totals["crashes"]
            + (telemetry.crashes if telemetry is not None else 0),
            "des_events": totals["des_events"]
            + (telemetry.des_events if telemetry is not None else 0),
            "des_cores": des_cores,
            "wall_time_total": totals["wall_time_total"]
            + (telemetry.wall_time_total if telemetry is not None else 0.0),
            "started_at": started_wall,
            "updated_at": time.time(),
        }
        try:
            write_progress_doc(run_dir, f"node-{node_id}", doc)
        except OSError:
            pass  # a failed heartbeat must never fail the chunk

    publish("starting", force=True)
    plan = load_manifest(run_dir)
    if plan is None:
        write_node_error(
            run_dir, node_id, {"error": "manifest missing or unreadable"}
        )
        publish("failed", force=True)
        return 2
    payload = load_payload(run_dir)
    fn = payload["fn"]
    configs = payload["configs"]
    obs = payload["obs"]
    options = payload["node_options"]
    chunks = {c.chunk_id: c for c in plan.chunks}
    sweep_parent = options.get("span_sweep")

    # Nodes with retries/timeout/partial run attempts in worker processes
    # so a crashing config cannot take the whole node down.
    fault_tolerant = (
        options["max_retries"] > 0
        or options["timeout"] is not None
        or options["partial"]
    )
    backend = (
        "process" if (fault_tolerant or options["jobs"] > 1) else "serial"
    )

    for chunk_id in chunk_ids:
        chunk = chunks.get(chunk_id)
        if chunk is None:
            write_node_error(
                run_dir, node_id, {"error": f"unknown chunk id {chunk_id}"}
            )
            publish("failed", force=True)
            return 2
        if chunk_result_path(run_dir, chunk_id).exists():
            completed += 1  # published by an earlier round; keep it
            maybe_fire_node_fault(run_dir, node_id, completed)
            continue
        runner = ExperimentRunner(
            jobs=options["jobs"],
            backend=backend,
            max_retries=options["max_retries"],
            retry_backoff=options["retry_backoff"],
            timeout=options["timeout"],
            partial=options["partial"],
            trace_capacity=options["trace_capacity"],
            profile=bool(options.get("profile")),
        )
        chunk_configs = [configs[i] for i in chunk.indices]
        local_positions = list(chunk.indices)
        chunk_total = len(chunk.indices)
        def on_progress(
            telemetry: Any, c: int = chunk_id, t: int = chunk_total
        ) -> None:
            publish("running", c, telemetry, t, jobs=options["jobs"])

        runner.on_progress = on_progress
        publish("running", chunk_id, runner.telemetry, chunk_total,
                jobs=options["jobs"], force=True)
        # Spans for this chunk are captured in a private collector so they
        # can ride inside the chunk's own result file.
        collector = SpanCollector()
        chunk_started = time.perf_counter()
        previous = set_span_collector(collector)
        try:
            computed = runner._execute(
                fn, chunk_configs, local_positions, obs,
                span_parent=sweep_parent,
            )
        except WorkerError as exc:
            write_node_error(
                run_dir,
                node_id,
                {
                    "position": exc.index,
                    "config": repr(exc.config),
                    "error": repr(exc.cause),
                    "traceback": exc.worker_traceback,
                    "attempts": exc.attempts,
                },
            )
            publish("failed", force=True)
            return 3
        finally:
            set_span_collector(previous)
        chunk_elapsed = time.perf_counter() - chunk_started
        chunk_span = Span(
            span_id=chunk_span_id(chunk_id),
            parent_id=node_span_id(node_id, round_),
            name=f"chunk {chunk_id}",
            kind=KIND_CHUNK,
            status="ok",
            start=chunk_started,
            duration=chunk_elapsed,
            attrs={"node": node_id, "positions": chunk_total, "round": round_},
        )
        for span in collector.spans():
            span.attrs.setdefault("chunk", chunk_id)
        span_records = [span_to_record(s) for s in collector.spans()]
        span_records.append(span_to_record(chunk_span))
        telemetry = runner.telemetry
        write_chunk_result(
            run_dir,
            ChunkResult(
                chunk_id=chunk_id,
                node_id=node_id,
                round_=round_,
                results=[value for value, _snapshot in computed],
                snapshots=[snapshot for _value, snapshot in computed],
                # Successful replications only (partial-mode failures have
                # no completed attempt to time) — the coordinator folds
                # these straight into its replication ledger.
                wall_times=list(telemetry.wall_times),
                des_events=telemetry.des_events,
                des_cores=dict(telemetry.des_cores),
                retries=telemetry.retries,
                timeouts=telemetry.timeouts,
                crashes=telemetry.crashes,
                failures=telemetry.failures,
                spans=span_records,
            ),
        )
        # Append the same records to the node's live span log for anyone
        # tailing the run directory while the sweep is still going.
        spans_file = node_spans_path(run_dir, node_id)
        try:
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_file, "a", encoding="utf-8") as fh:
                for record in span_records:
                    fh.write(json.dumps(record) + "\n")
        except OSError:
            pass  # the authoritative copy is already in the chunk file
        totals["replications"] += telemetry.replications
        totals["failures"] += telemetry.failures
        totals["retries"] += telemetry.retries
        totals["timeouts"] += telemetry.timeouts
        totals["crashes"] += telemetry.crashes
        totals["des_events"] += telemetry.des_events
        for core, n in telemetry.des_cores.items():
            totals["des_cores"][core] = totals["des_cores"].get(core, 0) + n
        totals["wall_time_total"] += telemetry.wall_time_total
        completed += 1
        publish("running", force=True)
        maybe_fire_node_fault(run_dir, node_id, completed)
    publish("done", force=True)
    return 0
