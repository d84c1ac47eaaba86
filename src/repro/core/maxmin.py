"""Centralized max-min fair allocation of *excess* bandwidth.

Section 5.2: "Our policy for allocation of excess bandwidth is based on the
maxmin optimality criterion ... all connections constrained by a bottleneck
link get an equal share of this bottleneck capacity; ... the bottleneck
resource is utilized up to its capacity."

This module implements the textbook progressive-filling algorithm as the
*reference* allocator: the distributed event-driven protocol in
:mod:`repro.core.adaptation` must converge to the same allocation (Theorem 1),
which the test suite verifies.

All quantities here are **excess** bandwidth, i.e. beyond the guaranteed
``b_min`` floors: a connection's demand is ``b_max - b_min`` (infinite for
unbounded demands) and a link's capacity is ``b'_av,l = C_l - b_resv,l -
sum(b_min,i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Sequence, Set

from ..obs.metrics import get_registry

__all__ = [
    "MaxMinProblem",
    "maxmin_allocation",
    "is_maxmin_fair",
    "connection_bottlenecks",
    "network_bottleneck_links",
]

_EPS = 1e-9


@dataclass
class MaxMinProblem:
    """A max-min excess-sharing instance.

    Attributes
    ----------
    capacities:
        Excess capacity ``b'_av,l`` per link key.
    demands:
        Excess demand ``b_max - b_min`` per connection id (may be ``inf``).
    paths:
        Link keys traversed by each connection.
    """

    capacities: Dict[Hashable, float] = field(default_factory=dict)
    demands: Dict[Hashable, float] = field(default_factory=dict)
    paths: Dict[Hashable, List[Hashable]] = field(default_factory=dict)

    def add_link(self, link_id: Hashable, capacity: float) -> None:
        if capacity < 0:
            raise ValueError(f"excess capacity must be >= 0, got {capacity}")
        self.capacities[link_id] = float(capacity)

    def add_connection(
        self, conn_id: Hashable, path: Sequence[Hashable], demand: float = float("inf")
    ) -> None:
        if demand < 0:
            raise ValueError(f"demand must be >= 0, got {demand}")
        missing = [link for link in path if link not in self.capacities]
        if missing:
            raise KeyError(f"path uses unknown links: {missing}")
        self.demands[conn_id] = float(demand)
        self.paths[conn_id] = list(path)

    def connections_on(self, link_id: Hashable) -> List[Hashable]:
        return [c for c, path in self.paths.items() if link_id in path]


def maxmin_allocation(problem: MaxMinProblem) -> Dict[Hashable, float]:
    """Progressive filling: the unique max-min fair allocation.

    Raises the common water level for all active connections until each one
    freezes — either its demand is met or some link on its path saturates.
    Runs in O(connections * links) per freezing round.
    """
    allocation: Dict[Hashable, float] = {c: 0.0 for c in problem.demands}
    remaining: Dict[Hashable, float] = dict(problem.capacities)
    active: Set[Hashable] = {
        c for c, d in problem.demands.items() if d > _EPS and problem.paths[c]
    }
    # Zero-demand or pathless connections are frozen at zero immediately.

    while active:
        # One deterministic order per round: iterating the ``active`` set
        # directly would visit connections in hash-randomized order, and
        # every float update below must replay identically across processes.
        ordered = sorted(active, key=repr)

        # Count active connections per link.
        load: Dict[Hashable, int] = {}
        for conn in ordered:
            for link_id in problem.paths[conn]:
                load[link_id] = load.get(link_id, 0) + 1

        # The largest uniform increment every active connection can take.
        increment = min(
            remaining[link_id] / count for link_id, count in load.items()
        )
        increment = min(
            increment,
            min(problem.demands[c] - allocation[c] for c in ordered),
        )
        increment = max(increment, 0.0)

        for conn in ordered:
            allocation[conn] += increment
            for link_id in problem.paths[conn]:
                remaining[link_id] -= increment

        # Freeze satisfied connections and those crossing a saturated link.
        frozen = set()
        for conn in ordered:
            if allocation[conn] >= problem.demands[conn] - _EPS:
                frozen.add(conn)
            elif any(
                remaining[link_id] <= _EPS for link_id in problem.paths[conn]
            ):
                frozen.add(conn)
        get_registry().counter("maxmin_rounds_total").inc()
        if not frozen:
            # Numerical safety: cannot happen for well-posed inputs.
            break
        active -= frozen

    return allocation


def is_maxmin_fair(
    problem: MaxMinProblem, allocation: Mapping[Hashable, float], tol: float = 1e-6
) -> bool:
    """Check the max-min optimality certificate.

    Feasibility plus: every connection not at its demand has a *bottleneck*
    link — saturated, and on which no other connection receives more.
    """
    # Feasibility.
    used: Dict[Hashable, float] = {link: 0.0 for link in problem.capacities}
    for conn, path in problem.paths.items():
        rate = allocation.get(conn, 0.0)
        if rate < -tol or rate > problem.demands[conn] + tol:
            return False
        for link_id in path:
            used[link_id] += rate
    for link_id, total in used.items():
        if total > problem.capacities[link_id] + tol:
            return False

    # Bottleneck certificate for unsatisfied connections.
    for conn, path in problem.paths.items():
        rate = allocation.get(conn, 0.0)
        if rate >= problem.demands[conn] - tol:
            continue
        has_bottleneck = False
        for link_id in path:
            saturated = used[link_id] >= problem.capacities[link_id] - tol
            no_one_bigger = all(
                allocation.get(other, 0.0) <= rate + tol
                for other in problem.connections_on(link_id)
            )
            if saturated and no_one_bigger:
                has_bottleneck = True
                break
        if not has_bottleneck:
            return False
    return True


def connection_bottlenecks(
    problem: MaxMinProblem, allocation: Mapping[Hashable, float]
) -> Dict[Hashable, Hashable]:
    """The paper's "connection bottleneck link" per unsatisfied connection.

    Section 5.2: link ``l`` is a connection bottleneck for unsatisfied ``j``
    if the excess available to ``j`` is minimal at ``l`` along its path.  We
    measure "excess available to j at l" as the link's leftover capacity plus
    j's own share there (what j could get if everyone else held still).
    """
    used: Dict[Hashable, float] = {link: 0.0 for link in problem.capacities}
    for conn, path in problem.paths.items():
        for link_id in path:
            used[link_id] += allocation.get(conn, 0.0)

    result: Dict[Hashable, Hashable] = {}
    for conn, path in problem.paths.items():
        rate = allocation.get(conn, 0.0)
        if rate >= problem.demands[conn] - _EPS or not path:
            continue
        # Prefer the certificate link: saturated, and no co-resident
        # connection receives more than this one.
        certified = None
        for link_id in path:
            saturated = used[link_id] >= problem.capacities[link_id] - _EPS
            no_one_bigger = all(
                allocation.get(other, 0.0) <= rate + _EPS
                for other in problem.connections_on(link_id)
            )
            if saturated and no_one_bigger:
                certified = link_id
                break
        if certified is not None:
            result[conn] = certified
            continue
        # Fallback (non-equilibrium allocations): the link where the excess
        # available to this connection is minimal, per Section 5.2.
        available = {
            link_id: problem.capacities[link_id] - used[link_id] + rate
            for link_id in path
        }
        result[conn] = min(available, key=lambda k: (available[k], str(k)))
    return result


def network_bottleneck_links(
    problem: MaxMinProblem, allocation: Mapping[Hashable, float], tol: float = 1e-6
) -> List[Hashable]:
    """Links that are saturated and equalize their unsatisfied connections.

    A network bottleneck is a bottleneck for *all* connections through it
    (Section 5.2's recursive definition collapses to this certificate once
    the allocation is max-min fair).
    """
    used: Dict[Hashable, float] = {link: 0.0 for link in problem.capacities}
    for conn, path in problem.paths.items():
        for link_id in path:
            used[link_id] += allocation.get(conn, 0.0)

    bottlenecks = []
    for link_id, capacity in problem.capacities.items():
        conns = problem.connections_on(link_id)
        unsatisfied = [
            c
            for c in conns
            if allocation.get(c, 0.0) < problem.demands[c] - tol
        ]
        if not unsatisfied:
            continue
        if used[link_id] < capacity - tol:
            continue
        top = max(allocation.get(c, 0.0) for c in conns)
        if all(abs(allocation.get(c, 0.0) - top) <= tol for c in unsatisfied):
            bottlenecks.append(link_id)
    return bottlenecks
