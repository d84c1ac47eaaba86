"""Hierarchical span tracing for the experiment runtime.

Where :mod:`repro.obs.trace` records what happens *inside* a simulation
(sim-time-stamped domain events), spans record where *wall-clock* time
goes while the runtime executes a sweep: one span per sweep, per
replication, per retry attempt — and, when the distributed backend is
active, per node round and per chunk.  Every span carries a parent id,
a monotonic-clock duration, a status, and a small attribute dict, so a
finished run renders as a tree (``python -m repro trace spans``).

Spans split into two families:

* **structural** spans (``sweep`` → ``replication`` → ``attempt``)
  describe the logical work.  Their ids derive from submission indices
  and attempt counters only, so the structural projection
  (:func:`canonical_structure`) is byte-identical across serial,
  ``--jobs N``, and ``--backend distributed --nodes N`` for the same
  config + seed — the same guarantee the trace/metrics layers make.
* **topology** spans (``node``, ``chunk``) describe how the work was
  physically placed.  They exist only where the placement exists (a
  serial run has no chunks) and are excluded from the canonical
  projection.

Collection is opt-in and process-wide, mirroring the tracer:
:func:`set_span_collector` installs a collector that the runner backends
consult at settle time.  Without a collector every emission site reduces
to an ``is None`` branch — the DES kernel itself is never touched, so
the untraced hot path keeps its existing overhead budget.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .trace import open_text

__all__ = [
    "KIND_ATTEMPT",
    "KIND_CHUNK",
    "KIND_NODE",
    "KIND_REPLICATION",
    "KIND_SWEEP",
    "STRUCTURAL_KINDS",
    "TOPOLOGY_KINDS",
    "Span",
    "SpanCollector",
    "SpanLedger",
    "attempt_span_id",
    "canonical_structure",
    "chunk_span_id",
    "format_span_tree",
    "get_span_collector",
    "node_span_id",
    "read_spans_jsonl",
    "rebase_span_record",
    "replication_span_id",
    "set_span_collector",
    "span_from_record",
    "span_to_record",
    "sweep_span_id",
    "use_span_collector",
    "write_spans_jsonl",
]

KIND_SWEEP = "sweep"
KIND_REPLICATION = "replication"
KIND_ATTEMPT = "attempt"
KIND_NODE = "node"
KIND_CHUNK = "chunk"

#: Kinds whose ids/parentage are placement-independent — the canonical
#: structure projects exactly these.
STRUCTURAL_KINDS = (KIND_SWEEP, KIND_REPLICATION, KIND_ATTEMPT)

#: Kinds describing physical placement (distributed runs only).
TOPOLOGY_KINDS = (KIND_NODE, KIND_CHUNK)

#: A span serialized for JSONL transport — fixed key order, sorted attrs.
SpanRecord = Dict[str, Any]


def sweep_span_id(batch: int) -> str:
    """Root span id for the ``batch``-th ``run_many`` call of a runner."""
    return f"sweep-{batch:03d}"


def replication_span_id(position: int) -> str:
    """Span id for the replication at submission index ``position``."""
    return f"rep-{position:05d}"


def attempt_span_id(position: int, attempt: int) -> str:
    """Span id for try number ``attempt`` (1-based) of a replication."""
    return f"rep-{position:05d}.a{attempt}"


def chunk_span_id(chunk_id: int) -> str:
    return f"chunk-{chunk_id:05d}"


def node_span_id(node_id: int, round_: int) -> str:
    return f"node-{node_id}.r{round_}"


@dataclass
class Span:
    """One timed unit of runtime work.

    ``start`` is a monotonic-clock reading (``time.perf_counter`` by
    default) — meaningful for ordering and duration arithmetic within a
    process, deliberately *not* a wall-clock timestamp.
    """

    span_id: str
    parent_id: Optional[str]
    name: str
    kind: str
    status: str
    start: float
    duration: float
    attrs: Dict[str, Any] = field(default_factory=dict)


def span_to_record(span: Span) -> SpanRecord:
    """Serialize with a fixed key order and sorted attrs (stable JSONL)."""
    return {
        "span": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "status": span.status,
        "start": span.start,
        "duration": span.duration,
        "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
    }


def span_from_record(record: SpanRecord) -> Span:
    return Span(
        span_id=record["span"],
        parent_id=record.get("parent"),
        name=record.get("name", record["span"]),
        kind=record["kind"],
        status=record.get("status", "ok"),
        start=float(record.get("start", 0.0)),
        duration=float(record.get("duration", 0.0)),
        attrs=dict(record.get("attrs", {})),
    )


class SpanCollector:
    """Accumulates finished spans in emission order, counting per kind."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        #: Per-kind span counts (insertion order by first emission).
        self.counts: Dict[str, int] = {}

    def emit(self, span: Span) -> None:
        self._spans.append(span)
        self.counts[span.kind] = self.counts.get(span.kind, 0) + 1

    def spans(self) -> List[Span]:
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self.counts.clear()


_collector: Optional[SpanCollector] = None


def get_span_collector() -> Optional[SpanCollector]:
    """The installed process-wide collector, or None when spans are off."""
    return _collector


def set_span_collector(
    collector: Optional[SpanCollector],
) -> Optional[SpanCollector]:
    """Install (or with None, remove) the process-wide span collector.

    Returns the previously installed collector so callers can restore it.
    """
    global _collector
    previous = _collector
    _collector = collector
    return previous


@contextmanager
def use_span_collector(collector: SpanCollector) -> Iterator[SpanCollector]:
    """Scoped :func:`set_span_collector` — restores the previous on exit."""
    previous = set_span_collector(collector)
    try:
        yield collector
    finally:
        set_span_collector(previous)


class SpanLedger:
    """Per-sweep bookkeeping the runner backends emit spans through.

    A ledger is created once per ``_execute`` call with the sweep span id
    as parent.  Backends report each try via :meth:`attempt` and the
    final outcome via :meth:`settle`; the ledger assembles the
    replication span (status, total duration, attempt count) so the
    execution paths don't each reimplement the parentage rules.
    """

    def __init__(
        self,
        collector: SpanCollector,
        parent_id: str,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.collector = collector
        self.parent_id = parent_id
        self._clock = clock
        #: position -> list of (attempt status, seconds)
        self._attempts: Dict[int, List[Tuple[str, float]]] = {}

    def attempt(self, position: int, status: str, seconds: float) -> None:
        """Record one try of the replication at submission ``position``.

        ``status``: ``ok``, ``error``, ``timeout``, or ``crash``.
        """
        tries = self._attempts.setdefault(position, [])
        tries.append((status, seconds))
        number = len(tries)
        now = self._clock()
        self.collector.emit(
            Span(
                span_id=attempt_span_id(position, number),
                parent_id=replication_span_id(position),
                name=f"attempt {number}",
                kind=KIND_ATTEMPT,
                status=status,
                start=now - seconds,
                duration=seconds,
                attrs={"attempt": number, "position": position},
            )
        )

    def settle(self, position: int, status: str) -> None:
        """Close the replication span: ``status`` is ``ok`` or ``failed``."""
        tries = self._attempts.pop(position, [])
        total = sum(seconds for _, seconds in tries)
        now = self._clock()
        self.collector.emit(
            Span(
                span_id=replication_span_id(position),
                parent_id=self.parent_id,
                name=f"replication {position}",
                kind=KIND_REPLICATION,
                status=status,
                start=now - total,
                duration=total,
                attrs={"attempts": max(len(tries), 1), "position": position},
            )
        )


def canonical_structure(spans: List[Span]) -> bytes:
    """Project the placement-independent structure of a span set.

    Keeps only structural kinds, drops every timing field, sorts by
    (kind, span id), and appends per-kind counts.  Two runs of the same
    sweep — serial, pooled, or distributed at any node count — must
    produce byte-identical output; the identity tests compare exactly
    these bytes.
    """
    structural = [s for s in spans if s.kind in STRUCTURAL_KINDS]
    projected = sorted(
        (
            {
                "span": s.span_id,
                "parent": s.parent_id,
                "kind": s.kind,
                "name": s.name,
                "status": s.status,
            }
            for s in structural
        ),
        key=lambda item: (item["kind"], item["span"]),
    )
    counts: Dict[str, int] = {}
    for s in structural:
        counts[s.kind] = counts.get(s.kind, 0) + 1
    doc = {"spans": projected, "counts": {k: counts[k] for k in sorted(counts)}}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def write_spans_jsonl(path: str, spans: List[Span]) -> int:
    """Write spans as JSONL, sorted by span id for deterministic files.

    Gzip-compresses transparently when ``path`` ends in ``.gz``.
    Returns the number of spans written.
    """
    ordered = sorted(spans, key=lambda s: s.span_id)
    with open_text(path, "w") as fh:
        for span in ordered:
            fh.write(json.dumps(span_to_record(span), sort_keys=False) + "\n")
    return len(ordered)


def read_spans_jsonl(path: str) -> List[Span]:
    """Load spans from a (possibly gzipped) JSONL file."""
    spans: List[Span] = []
    with open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if not isinstance(record, dict) or not isinstance(record.get("span"), str):
                raise ValueError(f"{path}:{lineno}: not a span record")
            spans.append(span_from_record(record))
    return spans


def rebase_span_record(
    record: SpanRecord,
    position_map: Dict[int, int],
    sweep_parent: str,
) -> SpanRecord:
    """Translate a node-local span record into coordinator coordinates.

    Node workers index replications by *manifest position*; the
    coordinator's submission may be a cache-filtered subset, so
    replication/attempt ids are rewritten through ``position_map``
    (manifest position → submission index).  The replication parent is
    always reset to ``sweep_parent`` — a resumed chunk carries spans
    minted under the *first* submission's sweep id, and they must
    re-parent under the current one so the merged tree stays connected.
    """
    out = dict(record)
    out["attrs"] = dict(record.get("attrs", {}))
    kind = record.get("kind")
    if kind in (KIND_REPLICATION, KIND_ATTEMPT):
        old_pos = out["attrs"].get("position")
        if old_pos is not None and old_pos in position_map:
            new_pos = position_map[old_pos]
            old_rep = replication_span_id(old_pos)
            new_rep = replication_span_id(new_pos)
            out["attrs"]["position"] = new_pos
            if isinstance(out.get("span"), str) and out["span"].startswith(old_rep):
                out["span"] = new_rep + out["span"][len(old_rep):]
            if isinstance(out.get("parent"), str) and out["parent"].startswith(old_rep):
                out["parent"] = new_rep + out["parent"][len(old_rep):]
        if kind == KIND_REPLICATION:
            out["parent"] = sweep_parent
            out["name"] = f"replication {out['attrs'].get('position')}"
    return out


def format_span_tree(spans: List[Span]) -> str:
    """Render spans as an indented tree, children sorted by span id."""
    by_parent: Dict[Optional[str], List[Span]] = {}
    ids = {s.span_id for s in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: s.span_id)

    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{span.span_id} [{span.kind}] {span.status}"
            f" {span.duration * 1000.0:.2f}ms"
        )
        for child in by_parent.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in by_parent.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)
