"""Calibrated synthetic handoff traces.

The paper's Section 7.1 numbers came from physical measurements in the UIUC
ECE building over the Spring 1996 semester — traces we cannot obtain.  These
generators reproduce the *reported statistics* of those measurements (the
substitution documented in DESIGN.md): the evaluation consumes only the
handoff event streams, so matching the streams' statistics preserves what
the reservation algorithms see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "HandoffEvent",
    "MoveTrace",
    "office_week_trace",
    "class_session_trace",
    "classroom_handoff_times",
    "OFFICE_WEEK_TARGETS",
]


@dataclass(frozen=True)
class HandoffEvent:
    """One observed handoff: ``portable`` moved ``from_cell -> to_cell``."""

    time: float
    portable: Hashable
    from_cell: Hashable
    to_cell: Hashable


@dataclass
class MoveTrace:
    """A time-ordered list of handoff events with provenance metadata."""

    events: List[HandoffEvent]
    meta: dict

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    def between(self, start: float, end: float) -> List[HandoffEvent]:
        return [e for e in self.events if start <= e.time < end]

    def transitions(self, from_cell: Hashable, to_cell: Hashable) -> int:
        return sum(
            1
            for e in self.events
            if e.from_cell == from_cell and e.to_cell == to_cell
        )


#: Section 7.1's measured outcome counts after a C -> D transit, per group:
#: (into A, into B via E, away to F or G).
OFFICE_WEEK_TARGETS = {
    "faculty": (94, 20, 13),      # 127 transits
    "students": (12, 173, 31),    # 218 transits (3 students)
    "others": (39, 17, 1039 - 39 - 17),  # 1384 total transits minus the above
}

_WORKWEEK = 5 * 8 * 3600.0  # five 8-hour days in seconds


def _walk(
    events: List[HandoffEvent],
    rng: random.Random,
    t: float,
    portable: Hashable,
    path: Sequence[Hashable],
    step_mean: float = 20.0,
) -> float:
    """Append the handoffs of one walk along ``path``; returns the end time."""
    for a, b in zip(path, path[1:]):
        t += rng.expovariate(1.0 / step_mean)
        events.append(HandoffEvent(t, portable, a, b))
    return t


def office_week_trace(
    seed: int = 1996,
    duration: float = _WORKWEEK,
    targets: Optional[dict] = None,
) -> MoveTrace:
    """One synthetic workweek around offices A and B (Figure 4).

    Every generated journey starts with the measured context (a C -> D
    transit) and continues to one of the three outcome groups with *exactly*
    the per-group counts of Section 7.1 (shuffled over the week):

    * into office A:       D -> A
    * into office B:       D -> E -> B
    * away past the doors: D -> F, or D -> E -> G

    The return journeys (A -> D, B -> E -> D, ...) are also emitted so cell
    occupancy stays balanced; only the forward statistics are calibrated.
    """
    rng = random.Random(seed)
    targets = targets or OFFICE_WEEK_TARGETS
    events: List[HandoffEvent] = []

    populations = {
        "faculty": ["faculty"],
        "students": ["student-1", "student-2", "student-3"],
        "others": [f"visitor-{i}" for i in range(1, 41)],
    }

    journeys: List[Tuple[str, str]] = []
    for group, (to_a, to_b, away) in targets.items():
        journeys.extend(("A", group) for _ in range(to_a))
        journeys.extend(("B", group) for _ in range(to_b))
        journeys.extend(("away", group) for _ in range(away))
    rng.shuffle(journeys)

    for i, (outcome, group) in enumerate(journeys):
        start = duration * (i + rng.random()) / (len(journeys) + 1)
        portable = rng.choice(populations[group])
        if outcome == "A":
            path = ["C", "D", "A"]
            back = ["A", "D", "C"]
        elif outcome == "B":
            path = ["C", "D", "E", "B"]
            back = ["B", "E", "D", "C"]
        else:
            path = (
                ["C", "D", "F"] if rng.random() < 0.5 else ["C", "D", "E", "G"]
            )
            back = None  # passers-by exit the observed area
        t = _walk(events, rng, start, portable, path)
        if back is not None:
            # Dwell in the office before heading back out.
            t += rng.expovariate(1.0 / 1800.0)
            _walk(events, rng, t, portable, back)

    events.sort(key=lambda e: e.time)
    return MoveTrace(
        events=events,
        meta={"seed": seed, "duration": duration, "targets": dict(targets)},
    )


def class_session_trace(
    seed: int,
    students: int,
    start_time: float,
    end_time: float,
    classroom: Hashable = "class",
    corridor: Hashable = "hall",
    arrival_spread: float = 600.0,
    departure_spread: float = 300.0,
    walkby_rate: float = 0.02,
    walkby_enter_fraction: float = 0.0,
    walkby_dwell: float = 30.0,
    observe_until: Optional[float] = None,
) -> MoveTrace:
    """Handoffs around one class meeting (the Figure 5 scenario).

    * ``students`` attendees hand into the classroom within
      ``arrival_spread`` seconds around ``start_time`` (the measured
      "10 minute period around the start"), uniformly at random.
    * They hand out within ``departure_spread`` after ``end_time`` (the
      measured "5 minute period after the class").
    * Background walk-by traffic passes the corridor cell outside at
      ``walkby_rate`` per second; a fraction optionally enters late.

    All corridor pass-bys appear as handoffs *into the corridor cell* —
    the activity Figures 5.b and 5.d plot.
    """
    rng = random.Random(seed)
    events: List[HandoffEvent] = []

    for i in range(students):
        pid = f"attendee-{i}"
        t_in = start_time + rng.uniform(-arrival_spread, arrival_spread * 0.3)
        events.append(HandoffEvent(t_in - 15.0, pid, "outside", corridor))
        events.append(HandoffEvent(t_in, pid, corridor, classroom))
        t_out = end_time + rng.uniform(0.0, departure_spread)
        events.append(HandoffEvent(t_out, pid, classroom, corridor))
        events.append(HandoffEvent(t_out + 15.0, pid, corridor, "outside"))

    horizon = observe_until if observe_until is not None else end_time + 2 * departure_spread
    t = start_time - 2 * arrival_spread
    walker = 0
    while walkby_rate > 0:
        t += rng.expovariate(walkby_rate)
        if t >= horizon:
            break
        walker += 1
        pid = f"walker-{walker}"
        events.append(HandoffEvent(t, pid, "outside", corridor))
        if rng.random() < walkby_enter_fraction and t < end_time:
            # A passer-by pops into the room briefly (late students, people
            # looking for a seat) and leaves again.
            events.append(HandoffEvent(t + 20.0, pid, corridor, classroom))
            t_out = min(
                end_time + rng.uniform(0.0, departure_spread),
                t + 20.0 + rng.expovariate(1.0 / 240.0),
            )
            events.append(HandoffEvent(t_out, pid, classroom, corridor))
            events.append(HandoffEvent(t_out + 15.0, pid, corridor, "outside"))
        else:
            dwell = rng.expovariate(1.0 / walkby_dwell)
            events.append(HandoffEvent(t + dwell, pid, corridor, "outside"))

    events.sort(key=lambda e: e.time)
    return MoveTrace(
        events=events,
        meta={
            "seed": seed,
            "students": students,
            "start_time": start_time,
            "end_time": end_time,
            "walkers": walker,
        },
    )


def classroom_handoff_times(session: Tuple[int, int, float, float]) -> List[float]:
    """Times of the handoffs into or out of the classroom in one session.

    ``session`` is ``(seed, students, start_time, end_time)`` of a
    :func:`class_session_trace` without walk-by traffic; the one-argument
    form lets an experiment runner dispatch sessions as configs.
    """
    seed, students, start_time, end_time = session
    trace = class_session_trace(
        seed=seed, students=students, start_time=start_time,
        end_time=end_time, walkby_rate=0.0,
    )
    return [e.time for e in trace if "class" in (e.from_cell, e.to_cell)]
