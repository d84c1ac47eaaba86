"""Canned end-to-end scenarios used by examples and benchmarks."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List

from ..core.qos import audio_request, video_request
from ..mobility.campus import campus_plan
from ..mobility.cafeteria import CafeteriaPatron, lunch_intensity, patron_spawner
from ..mobility.floorplan import campus_floorplan
from ..mobility.meeting import MeetingAttendee
from ..mobility.office import OfficeWorker
from ..mobility.randomwalk import RandomWalker
from ..profiles.records import BookingCalendar, Meeting
from ..stats.counters import TeletrafficStats
from ..traffic.connection import reset_conn_ids
from ..wireless.portable import Portable
from .simulator import FloorplanSimulator

__all__ = [
    "CampusDayResult",
    "run_campus_day",
    "OfficeWeekResult",
    "run_office_week",
    "CampusScaleConfig",
    "CampusScaleResult",
    "attach_campus",
    "run_campus_scale",
    "run_campus_waves",
    "simulate_campus_scale",
]


@dataclass
class CampusDayResult:
    """Summary of a day-in-the-life run."""

    stats: TeletrafficStats
    handoffs: int
    static_upgrades: int
    final_rates: Dict[Hashable, float]


def run_campus_day(
    seed: int = 42,
    day_length: float = 8 * 3600.0,
    capacity: float = 1600.0,
    walkers: int = 6,
    patrons: int = 20,
) -> CampusDayResult:
    """Simulate a working day on the campus floorplan.

    Office workers (adaptive video + audio), a scheduled mid-day meeting,
    a lunch rush at the cafeteria, and random walkers in the lounge —
    exercising every cell class and the full Figure 1 pipeline.
    """
    # Callers may run this outside the experiment runtime, so reset auto-ids
    # here the way the runner does per replication: output must not depend
    # on whatever this process simulated first.
    reset_conn_ids()
    rng = random.Random(seed)
    plan = campus_floorplan()

    meeting = Meeting(start=3 * 3600.0, end=4 * 3600.0, attendees=6)
    calendar = BookingCalendar([meeting])

    sim = FloorplanSimulator(
        plan,
        capacity=capacity,
        static_threshold=600.0,
        seed=seed,
        calendars={"meeting": calendar},
    )
    env = sim.env

    # Office workers: resident, with standing connections.
    workers: List[Portable] = []
    for pid, office in (("alice", "office-1"), ("bob", "office-2"), ("carol", "office-2")):
        portable = sim.add_portable(pid, office, home_office=office)
        workers.append(portable)
        sim.request_connection(pid, video_request())
        sim.request_connection(pid, audio_request())
        model = OfficeWorker(
            env,
            plan,
            portable,
            sim.manager.move_portable,
            random.Random(rng.randrange(2**31)),
            home=office,
            destinations=["cafeteria", "meeting", "lounge"],
            office_dwell_mean=5400.0,
        )
        env.process(model.run())

    # Meeting attendees coming from elsewhere on the floor.
    for i in range(meeting.attendees):
        pid = f"attendee-{i}"
        portable = sim.add_portable(pid, "cor-1")
        sim.request_connection(pid, audio_request())
        model = MeetingAttendee(
            env,
            plan,
            portable,
            sim.manager.move_portable,
            random.Random(rng.randrange(2**31)),
            meeting=meeting,
            room="meeting",
            home="cor-1",
        )
        env.process(model.run())

    # Lounge walkers (default-lounge workload).
    for i in range(walkers):
        pid = f"walker-{i}"
        portable = sim.add_portable(pid, "lounge")
        sim.request_connection(pid, audio_request())
        model = RandomWalker(
            env,
            plan,
            portable,
            sim.manager.move_portable,
            random.Random(rng.randrange(2**31)),
            dwell_mean=900.0,
        )
        env.process(model.run())

    # Lunch rush: non-homogeneous Poisson patron arrivals.
    patron_counter = {"n": 0}

    def spawn_patron(now: float) -> None:
        if patron_counter["n"] >= patrons:
            return
        patron_counter["n"] += 1
        pid = f"patron-{patron_counter['n']}"
        portable = sim.add_portable(pid, "cor-1")
        sim.request_connection(pid, audio_request())
        model = CafeteriaPatron(
            env,
            plan,
            portable,
            sim.manager.move_portable,
            random.Random(rng.randrange(2**31)),
            cafeteria="cafeteria",
            home="cor-1",
        )
        env.process(model.run())

    peak_rate = patrons / 3600.0
    env.process(
        patron_spawner(
            env,
            random.Random(rng.randrange(2**31)),
            intensity=lambda t: lunch_intensity(
                t, peak_time=4.5 * 3600.0, peak_rate=peak_rate, width=2400.0
            ),
            spawn=spawn_patron,
            max_rate=peak_rate,
            horizon=day_length,
        )
    )

    # Periodic control-plane maintenance (static refresh, pool adaptation).
    def maintenance():
        while True:
            yield env.timeout(300.0)
            sim.manager.refresh_static_states()

    env.process(maintenance())

    env.run(until=day_length)

    static_upgrades = sum(
        1
        for conn in sim.manager.connections.values()
        if conn.qos.bounds is not None and conn.rate > conn.b_min + 1e-9
    )
    final_rates = {
        conn.conn_id: conn.rate for conn in sim.manager.connections.values()
    }
    return CampusDayResult(
        stats=sim.stats,
        handoffs=sim.stats.handoff_attempts,
        static_upgrades=static_upgrades,
        final_rates=final_rates,
    )


@dataclass
class OfficeWeekResult:
    """Summary of replaying the Figure 4 workweek through the live system."""

    stats: TeletrafficStats
    reservation_hits: int
    reservation_misses: int
    drops: int

    @property
    def hit_rate(self) -> float:
        total = self.reservation_hits + self.reservation_misses
        return self.reservation_hits / total if total else 0.0


def run_office_week(
    seed: int = 1996, capacity: float = 1600.0, static_threshold: float = 900.0
) -> OfficeWeekResult:
    """Replay the calibrated Figure 4 workweek through the full manager.

    Every portable in the trace carries one audio connection; the corridor
    base stations place advance reservations via the three-level predictor,
    and each handoff is scored against the reservation actually waiting at
    the destination — the live-system version of the Figure 4 analysis.
    """
    from ..core.qos import audio_request
    from ..mobility.floorplan import figure4_floorplan
    from ..mobility.traces import office_week_trace

    reset_conn_ids()
    plan = figure4_floorplan()
    sim = FloorplanSimulator(
        plan, capacity=capacity, static_threshold=static_threshold, seed=seed
    )
    for office, occupants in plan.occupants.items():
        sim.cells[office].occupants |= set(occupants)

    trace = office_week_trace(seed=seed)

    def cell_path(start, goal):
        """BFS cell path (exclusive of start), for walking back to a
        journey's starting cell between trace journeys."""
        if start == goal:
            return []
        frontier, came = [start], {start: None}
        while frontier:
            nxt = []
            for cell in frontier:
                for n in sorted(plan.neighbors(cell), key=repr):
                    if n not in came:
                        came[n] = cell
                        if n == goal:
                            path = [n]
                            while came[path[-1]] is not None:
                                path.append(came[path[-1]])
                            path.reverse()
                            return path[1:]
                        nxt.append(n)
            frontier = nxt
        return []

    def driver():
        for event in trace:
            if event.time > sim.env.now:
                yield sim.env.timeout(event.time - sim.env.now)
            pid = event.portable
            if pid not in sim.portables:
                sim.add_portable(pid, event.from_cell)
                sim.request_connection(pid, audio_request())
            portable = sim.portables[pid]
            if portable.current_cell != event.from_cell:
                # The measured trace tracks journeys, not continuous
                # presence: walk back to this journey's start (these moves
                # are real handoffs, but unscored).
                for cell in cell_path(portable.current_cell, event.from_cell):
                    sim.move(pid, cell)
                if portable.current_cell != event.from_cell:
                    continue  # connection dropped en route
            reserved = sim.cells[event.to_cell].reservations.targeted_for(pid)
            if reserved > 0:
                nonlocal_counts["hits"] += 1
            else:
                nonlocal_counts["misses"] += 1
            sim.move(pid, event.to_cell)

    nonlocal_counts = {"hits": 0, "misses": 0}
    sim.env.process(driver())
    sim.env.run()

    return OfficeWeekResult(
        stats=sim.stats,
        reservation_hits=nonlocal_counts["hits"],
        reservation_misses=nonlocal_counts["misses"],
        drops=sim.stats.handoff_drops,
    )


@dataclass(frozen=True)
class CampusScaleConfig:
    """Parameters of the campus-scale scenario (picklable, cache-keyable).

    ``portables`` is the *total* population; only ``active_fraction`` of it
    carries connections and moves.  The inactive rest is attached and then
    merely resides — the regime whose per-tick cost the per-cell indexing
    work drives to zero.
    """

    seed: int = 7
    buildings: int = 2
    floors: int = 2
    corridor_cells: int = 4
    offices_per_floor: int = 8
    portables: int = 1000
    active_fraction: float = 0.05
    horizon: float = 1800.0
    capacity: float = 1600.0
    static_threshold: float = 600.0
    maintenance_period: float = 300.0
    #: Seconds between handoff waves (one batched ``move_portables`` each).
    wave_period: float = 120.0
    #: Diurnal cycle length driving the wave intensity envelope.
    diurnal_period: float = 3600.0
    #: Peak fraction of *active* portables crossing per wave.
    wave_peak_fraction: float = 0.5
    #: Incremental (dirty-cell) maintenance vs. the full-scan reference.
    incremental: bool = True


@dataclass
class CampusScaleResult:
    """Compact, population-size-independent summary of a campus-scale run.

    Aggregates are accumulated in fixed container insertion order, so they
    are bit-identical across hash seeds, serial/parallel, and the
    incremental/full-scan maintenance paths.
    """

    stats: TeletrafficStats
    cells: int
    portables: int
    active: int
    handoffs: int
    drops: int
    blocked: int
    admitted: int
    #: Sum of final connection rates (manager insertion order).
    total_rate: float
    #: Sum of final ``B_dyn`` pools (cell insertion order).
    pool_total: float
    #: Sum of final advance-reservation ledger totals (cell insertion order).
    reserved_total: float


def attach_campus(config: CampusScaleConfig) -> FloorplanSimulator:
    """Build the campus and attach its whole population (the setup phase).

    Every portable attaches up front; the active minority also opens an
    audio connection.  :func:`run_campus_waves` then drives the steady
    state on the returned simulator.
    """
    reset_conn_ids()
    plan = campus_plan(
        buildings=config.buildings,
        floors=config.floors,
        corridor_cells=config.corridor_cells,
        offices_per_floor=config.offices_per_floor,
    )
    sim = FloorplanSimulator(
        plan,
        capacity=config.capacity,
        static_threshold=config.static_threshold,
        seed=config.seed,
        incremental=config.incremental,
    )
    cells = plan.cells  # fixed generation order
    for i in range(config.portables):
        sim.add_portable(f"u{i}", cells[i % len(cells)])
    for pid in _active_pids(config):
        sim.request_connection(pid, audio_request())
    return sim


def _active_pids(config: CampusScaleConfig) -> List[str]:
    active = min(config.portables, int(config.portables * config.active_fraction))
    return [f"u{i}" for i in range(active)]


def run_campus_waves(
    config: CampusScaleConfig, sim: FloorplanSimulator
) -> CampusScaleResult:
    """Run the steady state on an :func:`attach_campus` simulator.

    The active minority crosses cells in batched waves whose size follows
    a raised-cosine diurnal envelope.  Periodic maintenance re-runs the
    static/mobile test — at scale, the incremental path touches only the
    cells the waves actually dirtied.
    """
    env = sim.env
    plan = sim.plan
    cells = plan.cells
    active_pids = _active_pids(config)
    rng = random.Random(config.seed)
    wave_rng = random.Random(rng.randrange(2**31))

    def waves():
        while True:
            yield env.timeout(config.wave_period)
            intensity = 0.5 * (
                1.0 - math.cos(2.0 * math.pi * env.now / config.diurnal_period)
            )
            movers = int(len(active_pids) * config.wave_peak_fraction * intensity)
            if movers == 0:
                continue
            moves = []
            for pid in wave_rng.sample(active_pids, movers):
                current = sim.portables[pid].current_cell
                neighbors = sorted(plan.neighbors(current), key=repr)
                moves.append((pid, neighbors[wave_rng.randrange(len(neighbors))]))
            sim.move_many(moves)

    def maintenance():
        while True:
            yield env.timeout(config.maintenance_period)
            sim.manager.refresh_static_states()

    env.process(waves())
    env.process(maintenance())
    env.run(until=config.horizon)

    manager = sim.manager
    total_rate = sum(conn.rate for conn in manager.connections.values())
    pool_total = sum(sim.cells[c].reservations.pool for c in cells)
    reserved_total = sum(sim.cells[c].reservations.total for c in cells)
    return CampusScaleResult(
        stats=sim.stats,
        cells=len(cells),
        portables=config.portables,
        active=len(active_pids),
        handoffs=sim.stats.handoff_attempts,
        drops=sim.stats.handoff_drops,
        blocked=manager.blocked,
        admitted=manager.admitted,
        total_rate=total_rate,
        pool_total=pool_total,
        reserved_total=reserved_total,
    )


def run_campus_scale(config: CampusScaleConfig) -> CampusScaleResult:
    """Simulate diurnal handoff waves over a multi-building campus."""
    return run_campus_waves(config, attach_campus(config))


def simulate_campus_scale(config) -> CampusScaleResult:
    """Runner-friendly entry point: accepts a config object or a dict.

    Module-level and picklable, so it can be dispatched through
    :class:`~repro.runtime.ExperimentRunner` pools (``python -m repro
    campus --jobs N``).
    """
    if isinstance(config, dict):
        config = CampusScaleConfig(**config)
    return run_campus_scale(config)
