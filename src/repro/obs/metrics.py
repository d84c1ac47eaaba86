"""Metrics registry: Counter / Gauge / Histogram keyed by name + labels.

Design goals, in priority order:

1. **Free when off.**  The process-wide default registry is a
   :class:`NullRegistry` whose instruments are shared no-op singletons, so
   an instrumented call site (``get_registry().counter("x").inc()``) costs
   a dict-free lookup and an empty method call when metrics are disabled.
2. **Deterministic.**  Instruments are keyed by ``(name, sorted(labels))``
   and every export walks them in sorted order, so two processes that
   perform the same instrument operations produce byte-identical JSON
   regardless of ``PYTHONHASHSEED`` or insertion order.
3. **Read-only with respect to the simulation.**  Instruments never touch
   RNG state, the event queue, or simulation values — recording a metric
   cannot perturb a run (the serial/parallel bit-identity contract).

The registry itself is process-local, but per-simulation metrics survive
the pool: the experiment runtime runs each replication under a private
worker-side registry and folds the snapshots back into the coordinator's
registry via :meth:`MetricsRegistry.merge_snapshot`, in replication order,
so exports are byte-identical at any worker count.  Harness-level
aggregates (wall times, retries, cache hits) live in
:class:`~repro.obs.telemetry.RunTelemetry` instead.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: ((label, value), ...) sorted by label name — the canonical label key.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical, hash-order-independent form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


#: Default histogram bucket upper bounds (seconds-flavored, but unitless).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)


class Histogram:
    """Cumulative-bucket histogram (observation counts per upper bound)."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "total", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: counts[i] observations fell in (bounds[i-1], bounds[i]];
        #: the final slot counts observations above the last bound.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_right(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in zip(self.bounds, self.bucket_counts)
            ]
            + [{"le": "inf", "count": self.bucket_counts[-1]}],
        }


class MetricsRegistry:
    """Instrument factory and export surface.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create: repeated calls
    with the same name and labels return the same instrument, and a name
    re-used with a different instrument kind raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}

    # -- instrument factories ---------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = Histogram(name, key[1], buckets or DEFAULT_BUCKETS)
        self._metrics[key] = metric
        return metric

    def _get_or_create(self, cls: type, name: str, labels: Dict[str, Any]):
        key = (name, _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, key[1])
        self._metrics[key] = metric
        return metric

    # -- introspection / export -------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def instruments(self) -> List[Any]:
        """Every instrument, sorted by (name, labels) — deterministic."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def to_dict(self) -> Dict[str, Any]:
        """Deterministically ordered, JSON-ready snapshot."""
        return {
            "metrics": [
                {
                    "name": m.name,
                    "type": m.kind,
                    "labels": {k: v for k, v in m.labels},
                    **m.snapshot(),
                }
                for m in self.instruments()
            ]
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def summary(self) -> str:
        """The non-zero counters, one per line (``--stats`` prints this)."""
        rows = []
        for m in self.instruments():
            if m.kind == "counter" and m.value:
                labels = ",".join(f"{k}={v}" for k, v in m.labels)
                rows.append((f"{m.name}{{{labels}}}" if labels else m.name, m.value))
        width = max((len(name) for name, _ in rows), default=0)
        lines = ["domain counters:"]
        lines += [f"  {name:<{width}}  {value:.15g}" for name, value in rows]
        if not rows:
            lines.append("  (none)")
        return "\n".join(lines)

    # -- cross-process folding ---------------------------------------------

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`to_dict` snapshot from another registry into this one.

        This is how per-replication registries collected *inside* pool
        workers aggregate on the coordinator: counters and histogram
        buckets add, gauges adopt the snapshot's value (so folding
        snapshots in replication-index order reproduces the final value a
        single registry shared across a serial run would hold).  Folding
        the same snapshots in the same order is deterministic by
        construction — instruments are keyed by name + sorted labels and
        exports are sorted — so the merged ``--stats-json`` metrics are
        byte-identical at any worker count.  Returns ``self``.
        """
        for entry in snapshot.get("metrics", []):
            name, labels = entry["name"], entry["labels"]
            kind = entry["type"]
            if kind == "counter":
                self.counter(name, **labels).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(name, **labels).set(entry["value"])
            elif kind == "histogram":
                bounds = [b["le"] for b in entry["buckets"] if b["le"] != "inf"]
                hist = self.histogram(name, buckets=bounds, **labels)
                if len(bounds) != len(hist.bounds):
                    raise ValueError(
                        f"histogram {name!r} bucket layout mismatch while "
                        f"merging ({len(bounds)} vs {len(hist.bounds)} bounds)"
                    )
                counts = [b["count"] for b in entry["buckets"]]
                for i, n in enumerate(counts):
                    hist.bucket_counts[i] += n
                hist.total += entry["sum"]
                hist.count += entry["count"]
            else:
                raise ValueError(f"unknown instrument kind {kind!r} in snapshot")
        return self


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled-metrics default: hands out shared no-op instruments.

    Call sites do not need to branch on "is metrics enabled" — asking the
    null registry for an instrument allocates nothing and the instrument's
    recording methods are empty.
    """

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null", ())
        self._gauge = _NullGauge("null", ())
        self._histogram = _NullHistogram("null", (), (1.0,))

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._gauge

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        return self._histogram

    def to_dict(self) -> Dict[str, Any]:
        return {"metrics": []}


#: Shared no-op registry; the process-wide default.
NULL_REGISTRY = NullRegistry()

_registry: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-wide registry (the no-op default unless installed)."""
    return _registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` process-wide (None restores the no-op default).

    Returns the previously installed registry so callers can restore it.
    """
    global _registry
    previous = _registry
    _registry = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_registry` — restores the previous one on exit."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
