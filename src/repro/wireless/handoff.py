"""Handoff execution: moving a portable's connections between cells.

A handoff runs the same admission test as a new connection, except the
arriving connection may consume resources reserved in advance for it: first
its targeted reservation, then any applicable aggregate pool (meeting /
cafeteria / default bookings), then the cell's ``B_dyn`` pool.  Connections
that cannot be accommodated are dropped — the event both Figure 5 and
Figure 6 count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Hashable, List, Optional

from ..obs.metrics import get_registry
from ..traffic.connection import Connection
from .cell import Cell
from .portable import Portable

__all__ = ["HandoffOutcome", "HandoffEngine"]


@dataclass
class HandoffOutcome:
    """Per-handoff accounting."""

    portable_id: Hashable
    from_cell: Optional[Hashable]
    to_cell: Hashable
    moved: List[Hashable] = field(default_factory=list)
    dropped: List[Hashable] = field(default_factory=list)
    #: Bandwidth satisfied from the targeted advance reservation.
    claimed_targeted: float = 0.0
    #: Bandwidth satisfied from aggregate pools.
    claimed_aggregate: float = 0.0
    #: Bandwidth satisfied from the B_dyn pool.
    claimed_pool: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.dropped


class HandoffEngine:
    """Executes handoffs over a set of cells.

    Parameters
    ----------
    get_cell:
        Resolver from cell id to :class:`Cell`.
    on_handoff:
        Optional observer ``(outcome, now)`` — the statistics layer and the
        lounge slot counters subscribe here.
    aggregate_tags:
        Callable giving the ordered aggregate-pool tags a handoff into a
        cell may draw from (e.g. the meeting tag of the target room).  The
        default checks the target cell's well-known tags.
    outcome_history:
        How many recent :class:`HandoffOutcome` records to retain on
        ``self.outcomes``.  Retention used to be unbounded, which grows
        linearly with total handoffs — a silent memory leak at campus
        scale.  Consumers needing every outcome subscribe ``on_handoff``;
        the retained window serves debugging and tests.
    """

    def __init__(
        self,
        get_cell: Callable[[Hashable], Cell],
        on_handoff: Optional[Callable[["HandoffOutcome", float], None]] = None,
        aggregate_tags: Optional[Callable[[Cell], List[Hashable]]] = None,
        outcome_history: int = 1024,
    ):
        self.get_cell = get_cell
        self.on_handoff = on_handoff
        self.aggregate_tags = aggregate_tags or self._default_tags
        self.outcomes: Deque[HandoffOutcome] = deque(maxlen=outcome_history)

    @staticmethod
    def _default_tags(cell: Cell) -> List[Hashable]:
        return [
            ("meeting", cell.cell_id),
            ("cafeteria", cell.cell_id),
            ("default", cell.cell_id),
            ("cafeteria-in", cell.cell_id),
            ("default-in", cell.cell_id),
        ]

    # -- the handoff ------------------------------------------------------------------

    def execute(self, portable: Portable, to_cell_id: Hashable, now: float) -> HandoffOutcome:
        """Move ``portable`` into ``to_cell_id``, migrating each connection.

        Each active connection is re-admitted on the target cell's wireless
        link; reservations are consumed in priority order.  Failures drop
        that connection only (others still migrate).
        """
        from_cell_id = portable.current_cell
        outcome = HandoffOutcome(
            portable_id=portable.portable_id,
            from_cell=from_cell_id,
            to_cell=to_cell_id,
        )
        target = self.get_cell(to_cell_id)
        source = self.get_cell(from_cell_id) if from_cell_id is not None else None

        # Claiming the targeted reservation releases it from the ledger,
        # which frees exactly that much admission headroom on the link.
        outcome.claimed_targeted = target.reservations.claim_portable(
            portable.portable_id
        )

        for conn in list(portable.active_connections):
            if conn.qos.bounds is None:
                outcome.moved.append(conn.conn_id)  # best-effort: no test
                continue
            need = conn.b_min
            if self._admit(target, conn, need, outcome):
                if source is not None and conn.conn_id in source.link.allocations:
                    source.link.release(conn.conn_id)
                conn.handoffs += 1
                # Handoff connections restart at the floor (mobile policy).
                conn.rate = conn.b_min
                outcome.moved.append(conn.conn_id)
            else:
                if source is not None and conn.conn_id in source.link.allocations:
                    source.link.release(conn.conn_id)
                conn.drop(now)
                portable.detach(conn)
                outcome.dropped.append(conn.conn_id)

        # Any leftover targeted claim evaporates (it was booked for us).
        if source is not None:
            source.leave(portable.portable_id)
        target.enter(portable.portable_id, now)
        portable.move_to(to_cell_id, now)

        self.outcomes.append(outcome)
        registry = get_registry()
        registry.counter("handoffs_total", clean=outcome.clean).inc()
        if outcome.dropped:
            registry.counter("handoff_drops_total").inc(len(outcome.dropped))
        if self.on_handoff is not None:
            self.on_handoff(outcome, now)
        return outcome

    def _admit(
        self,
        cell: Cell,
        conn: Connection,
        need: float,
        outcome: HandoffOutcome,
    ) -> bool:
        """Bandwidth admission on the wireless link, consuming reservations.

        The targeted reservation was already claimed (= released) by the
        caller, so plain headroom covers it; on shortfall this cascades
        through aggregate pools and then the ``B_dyn`` pool.
        """
        link = cell.link
        free = link.excess_available  # headroom beyond floors + reservations
        if free >= need:
            link.admit(conn.conn_id, need)
            return True

        shortfall = need - free

        # 1. Aggregate pools booked for expected handoffs into this cell.
        draws: List[tuple] = []
        remaining = shortfall
        for tag in self.aggregate_tags(cell):
            if remaining <= 1e-12:
                break
            available = cell.reservations.aggregate_for(tag)
            take = min(available, remaining)
            if take > 0:
                draws.append((tag, take))
                remaining -= take

        # 2. The B_dyn pool for unforeseen events.
        use_pool = 0.0
        if remaining > 1e-12:
            use_pool = min(cell.reservations.pool, remaining)
            remaining -= use_pool

        if remaining > 1e-9:
            return False  # even all reservations together cannot fit it

        # Commit the draws (the ledger syncs link.reserved down, freeing
        # exactly the headroom the admission needs).
        for tag, take in draws:
            cell.reservations.draw_aggregate(tag, take)
            outcome.claimed_aggregate += take
        if use_pool > 0:
            cell.reservations.draw_pool(use_pool)
            outcome.claimed_pool += use_pool
        link.admit(conn.conn_id, need)
        return True
