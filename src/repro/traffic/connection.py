"""Connection objects: the unit of QoS negotiation and reservation."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Hashable, List, Optional

if TYPE_CHECKING:  # imported for annotations only (avoids a package cycle)
    from ..core.qos import QoSRequest

__all__ = ["ConnectionState", "Connection", "reset_conn_ids"]

#: Auto-id state, held in a mutable cell so resets mutate in place (the
#: process-global-rebinding lint rule REP202 stays meaningful elsewhere).
_conn_ids = {"next": 1}


def _next_conn_id() -> str:
    n = _conn_ids["next"]
    _conn_ids["next"] = n + 1
    return f"conn-{n}"


def reset_conn_ids() -> None:
    """Restart auto-assigned connection ids at ``conn-1``.

    The experiment runtime calls this before every replication (via
    :func:`~repro.runtime.runner.register_replication_reset`), so the ids
    a replication assigns depend only on the replication itself
    — not on how many simulations the hosting process ran first.  Direct
    scenario entry points (``run_campus_day``) reset for the same reason.

    The module-state mutation REP404 would flag is this hook's entire
    purpose: every process (coordinator and each worker) runs it at the
    same point in every replication, which is exactly what makes the
    per-process counter deterministic.
    """
    _conn_ids["next"] = 1  # repro-lint: ignore[REP404]


class ConnectionState(Enum):
    """Lifecycle of a connection through the resource-management plane."""

    REQUESTED = "requested"
    ACTIVE = "active"
    BLOCKED = "blocked"        # admission refused at setup
    DROPPED = "dropped"        # forced termination (handoff failure)
    TERMINATED = "terminated"  # normal completion


@dataclass
class Connection:
    """An end-to-end connection with loose QoS bounds.

    Attributes
    ----------
    conn_id:
        Unique id (auto-assigned when not supplied).
    src, dst:
        Endpoint node ids in the topology (for the wireless hop the base
        station acts as the source, per Section 5.3.1).
    qos:
        The negotiated :class:`~repro.core.qos.QoSRequest`.
    portable_id:
        The portable that owns the wireless end (None for wired-only).
    ctype:
        Workload "connection type" index (Figure 6 uses two types).
    route:
        Node-id path assigned by routing; empty until admitted.
    rate:
        Currently granted bandwidth (b_min + excess), kept within bounds.
    """

    src: Hashable
    dst: Hashable
    qos: "QoSRequest"
    portable_id: Optional[Hashable] = None
    ctype: int = 0
    conn_id: Hashable = None
    route: List[Hashable] = field(default_factory=list)
    state: ConnectionState = ConnectionState.REQUESTED
    rate: float = 0.0
    started_at: Optional[float] = None
    ended_at: Optional[float] = None
    #: Number of inter-cell handoffs experienced.
    handoffs: int = 0

    def __post_init__(self):
        if self.conn_id is None:
            self.conn_id = _next_conn_id()

    @property
    def is_adaptive(self) -> bool:
        """True if the QoS bounds leave room for adaptation."""
        return self.qos.bounds is not None and not self.qos.bounds.is_fixed

    @property
    def b_min(self) -> float:
        return self.qos.b_min

    @property
    def b_max(self) -> float:
        return self.qos.b_max

    def activate(self, route: List[Hashable], rate: float, now: float) -> None:
        """Transition to ACTIVE after a successful admission round trip."""
        if self.state is not ConnectionState.REQUESTED:
            raise RuntimeError(f"cannot activate connection in state {self.state}")
        self.route = list(route)
        self.rate = rate
        self.state = ConnectionState.ACTIVE
        self.started_at = now

    def block(self, now: float) -> None:
        """Mark the setup attempt as refused by admission control."""
        if self.state is not ConnectionState.REQUESTED:
            raise RuntimeError(f"cannot block connection in state {self.state}")
        self.state = ConnectionState.BLOCKED
        self.ended_at = now

    def drop(self, now: float) -> None:
        """Forced mid-life termination (the handoff-drop event)."""
        if self.state is not ConnectionState.ACTIVE:
            raise RuntimeError(f"cannot drop connection in state {self.state}")
        self.state = ConnectionState.DROPPED
        self.ended_at = now

    def terminate(self, now: float) -> None:
        """Normal completion."""
        if self.state is not ConnectionState.ACTIVE:
            raise RuntimeError(f"cannot terminate connection in state {self.state}")
        self.state = ConnectionState.TERMINATED
        self.ended_at = now

    def __hash__(self):
        return hash(self.conn_id)


# Every replication dispatched by the experiment runtime starts from a
# fresh id counter (see reset_conn_ids for why).
from ..runtime.runner import register_replication_reset  # noqa: E402

register_replication_reset(reset_conn_ids)
