"""Admission control: the paper's Table 2 round-trip test.

A connection request travels a forward pass over its route; at each link the
bandwidth / delay / jitter / buffer / loss rows are tested and resources are
tentatively reserved "to the greatest level of local QoS support".  The
destination compares accumulated end-to-end values against the request.  The
reverse pass then reclaims over-reserved resources: delay slack is spread
uniformly over hops, buffers shrink to what the granted rate needs, and the
bandwidth grant lands at ``b_min + b_stamp`` for static portables or exactly
``b_min`` for mobiles.

Handoff connections run the *same* test but may consume the advance-reserved
share ``b_resv,l`` on designated links (the reservation made for them in the
next-predicted cell).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..network.link import Link
from ..network.scheduling import (
    Discipline,
    cumulative_jitter,
    e2e_delay_lower_bound,
    path_loss_probability,
    per_hop_delay,
    rcsp_buffer,
    relaxed_per_hop_delay,
    wfq_buffer,
)
from ..network.topology import Topology
from ..obs.metrics import get_registry
from ..traffic.connection import Connection

__all__ = ["AdmissionResult", "AdmissionController", "RejectReason"]


class RejectReason:
    """String constants naming which Table 2 row failed."""

    BANDWIDTH = "bandwidth"
    DELAY = "delay"
    JITTER = "jitter"
    BUFFER = "buffer"
    LOSS = "loss"


@dataclass
class AdmissionResult:
    """Outcome of one admission round trip.

    ``hop_delays`` / ``hop_buffers`` are the *reverse-pass* (post-relaxation)
    per-hop commitments, index-aligned with the route's links.
    """

    accepted: bool
    reason: Optional[str] = None
    failed_link: Optional[Tuple[Hashable, Hashable]] = None
    granted_rate: float = 0.0
    b_stamp: float = 0.0
    d_min: float = 0.0
    e2e_loss: float = 0.0
    hop_delays: List[float] = field(default_factory=list)
    hop_buffers: List[float] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.accepted


class AdmissionController:
    """Executes Table 2 for new and handoff connections over a topology.

    Parameters
    ----------
    topo:
        The topology whose link state is tested and mutated.
    discipline:
        WFQ or RCSP — selects the buffer row.
    advertised_rate:
        Optional callback ``f(link) -> float`` returning the current
        advertised excess rate at a link, used to stamp adaptive
        connections on the forward pass (Section 5.3.1).  Defaults to the
        link's unassigned capacity (the conflict-resolution protocol will
        subsequently converge all excess shares to max-min fairness).
    """

    def __init__(
        self,
        topo: Topology,
        discipline: Discipline = Discipline.WFQ,
        advertised_rate: Optional[Callable[[Link], float]] = None,
    ):
        self.topo = topo
        self.discipline = discipline
        self._advertised_rate = advertised_rate or (
            lambda link: max(0.0, link.unassigned)
        )

    # -- public API -------------------------------------------------------------

    def admit(
        self,
        conn: Connection,
        route: List[Hashable],
        is_handoff: bool = False,
        static_portable: bool = False,
        claimable: Optional[Dict[Tuple[Hashable, Hashable], float]] = None,
        commit: bool = True,
    ) -> AdmissionResult:
        """Run the round-trip admission test for ``conn`` over ``route``.

        ``claimable`` maps link keys to the advance-reserved bandwidth this
        (handoff) connection may consume there.  With ``commit=False`` the
        test runs without mutating any link state (a "what-if" probe).
        """
        result = self._evaluate(
            conn, route, is_handoff, static_portable, claimable, commit
        )
        get_registry().counter(
            "admission_decisions_total",
            accepted=result.accepted,
            reason=result.reason or "none",
        ).inc()
        return result

    def _evaluate(
        self,
        conn: Connection,
        route: List[Hashable],
        is_handoff: bool,
        static_portable: bool,
        claimable: Optional[Dict[Tuple[Hashable, Hashable], float]],
        commit: bool,
    ) -> AdmissionResult:
        """The Table 2 round trip proper (``admit`` minus observability)."""
        links = self.topo.path_links(route)
        if not links:
            raise ValueError("route must contain at least one link")
        qos = conn.qos

        if qos.bounds is None:
            # Best-effort connections skip reservation entirely (Section 4).
            result = AdmissionResult(accepted=True, granted_rate=0.0)
            return result

        claimable = claimable or {}
        b_min = qos.b_min
        sigma = qos.flowspec.sigma
        l_max = qos.flowspec.l_max
        n = len(links)

        # ---- forward pass -----------------------------------------------------
        stamp = qos.b_max - b_min
        fwd_delays: List[float] = []
        for index, link in enumerate(links, start=1):
            claim = min(claimable.get(link.key, 0.0), link.reserved) if is_handoff else 0.0
            headroom = link.excess_available + claim
            if b_min > headroom + 1e-9:
                return AdmissionResult(
                    accepted=False,
                    reason=RejectReason.BANDWIDTH,
                    failed_link=link.key,
                )

            d_local = per_hop_delay(b_min, link.capacity, l_max)
            fwd_delays.append(d_local)

            if cumulative_jitter(sigma, b_min, l_max, index) > qos.jitter_bound + 1e-12:
                return AdmissionResult(
                    accepted=False,
                    reason=RejectReason.JITTER,
                    failed_link=link.key,
                )

            buffer_needed = self._forward_buffer(
                sigma, l_max, qos.b_max, fwd_delays, index
            )
            already = link.buffers.get(conn.conn_id, 0.0)
            if buffer_needed - already > link.buffer_available + 1e-9:
                return AdmissionResult(
                    accepted=False,
                    reason=RejectReason.BUFFER,
                    failed_link=link.key,
                )

            # Stamp with the link's advertised excess, additionally capped
            # by the headroom left once this connection's own floor lands
            # (the floor is not yet committed during the forward pass, so a
            # raw advertised rate would oversubscribe the link).
            headroom_after = max(0.0, headroom - b_min)
            stamp = min(stamp, self._advertised_rate(link), headroom_after)

        # ---- destination tests ---------------------------------------------------
        d_min = e2e_delay_lower_bound(
            sigma, b_min, l_max, [link.capacity for link in links]
        )
        if d_min > qos.delay_bound + 1e-12:
            return AdmissionResult(
                accepted=False, reason=RejectReason.DELAY, d_min=d_min
            )

        e2e_loss = path_loss_probability([link.error_prob for link in links])
        if e2e_loss > qos.loss_bound + 1e-12:
            return AdmissionResult(
                accepted=False, reason=RejectReason.LOSS, e2e_loss=e2e_loss
            )

        # ---- reverse pass: relaxation and final grant -----------------------------
        stamp = max(0.0, stamp)
        granted = b_min + stamp if static_portable else b_min
        granted = qos.bounds.clamp(granted)

        hop_delays = [
            relaxed_per_hop_delay(d, qos.delay_bound, d_min, sigma, b_min, n)
            if qos.delay_bound < float("inf")
            else d
            for d in fwd_delays
        ]
        hop_buffers = self._reverse_buffers(
            sigma, l_max, granted, hop_delays, fwd_delays
        )

        result = AdmissionResult(
            accepted=True,
            granted_rate=granted,
            b_stamp=granted - b_min,
            d_min=d_min,
            e2e_loss=e2e_loss,
            hop_delays=hop_delays,
            hop_buffers=hop_buffers,
        )

        if commit:
            self._commit(conn, links, result, claimable if is_handoff else {})
        return result

    def release(self, conn: Connection, route: Optional[List[Hashable]] = None) -> None:
        """Tear down a connection's reservations along its route."""
        links = self.topo.path_links(route if route is not None else conn.route)
        for link in links:
            if conn.conn_id in link.allocations:
                link.release(conn.conn_id)

    # -- internals ----------------------------------------------------------------

    def _forward_buffer(
        self,
        sigma: float,
        l_max: float,
        b_max: float,
        fwd_delays: List[float],
        hop_index: int,
    ) -> float:
        """Greatest-local-support buffer reserved on the forward pass."""
        if self.discipline is Discipline.WFQ:
            return wfq_buffer(sigma, l_max, hop_index)
        if hop_index == 1:
            return rcsp_buffer(sigma, l_max, b_max, fwd_delays[0])
        return rcsp_buffer(
            sigma, l_max, b_max, fwd_delays[hop_index - 1], fwd_delays[hop_index - 2]
        )

    def _reverse_buffers(
        self,
        sigma: float,
        l_max: float,
        granted: float,
        relaxed: List[float],
        fwd: List[float],
    ) -> List[float]:
        """Reclaimed buffer sizes after the reverse pass (Table 2 last column)."""
        if self.discipline is Discipline.WFQ:
            return [wfq_buffer(sigma, l_max, i) for i in range(1, len(fwd) + 1)]
        buffers = [rcsp_buffer(sigma, l_max, granted, relaxed[0])]
        for hop in range(2, len(fwd) + 1):
            # Table 2: sigma + b_j * (d'_{l-1} + d_l): relaxed previous hop,
            # unrelaxed current hop (the regulator holds packets for d'_{l-1}).
            buffers.append(sigma + granted * (relaxed[hop - 2] + fwd[hop - 1]))
        return buffers

    def _commit(
        self,
        conn: Connection,
        links: List[Link],
        result: AdmissionResult,
        claims: Dict[Tuple[Hashable, Hashable], float],
    ) -> None:
        for link, buffer_amount in zip(links, result.hop_buffers):
            claim = min(claims.get(link.key, 0.0), link.reserved)
            if claim > 0:
                link.unreserve(claim)
            link.admit(conn.conn_id, conn.b_min, excess=result.b_stamp)
            link.reserve_buffer(conn.conn_id, buffer_amount)
