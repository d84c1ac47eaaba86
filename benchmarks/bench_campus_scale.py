"""Campus-scale hot-path scaling: per-crossing cost vs. total population.

The scaling contract of the per-cell indexing / sparse-ledger / batched-
handoff rework: with the *active fraction held fixed*, growing the total
portable population by 10x must not grow the cost of serving one handoff
crossing by more than 1.5x.  Before the rework, every maintenance tick
scanned the full population and every cell, so per-crossing cost grew
roughly linearly in the inactive population; with the dirty-cell refresh
and the connected-occupant index, the inactive crowd costs nothing after
attach.

Two per-crossing costs are gated.  ``us_per_crossing`` divides the whole
run's wall time by its handoffs, and attaching the population dominates
that wall time, so it mostly measures setup.  ``steady_us_per_crossing``
times only the handoff waves and maintenance that follow the attach
(``attach_campus`` and ``run_campus_waves`` timed as separate phases) —
the hot path the scaling contract is about.

Also recorded (informationally): DES kernel events/sec — waves are batched
(one DES event per wave regardless of movers), so kernel events measure
control-plane ticks, not workload — and peak RSS per population, read from
``ru_maxrss`` after each run (populations run smallest-first, so a growing
reading is attributable to the larger population).
"""

import resource
import time

from conftest import once

from repro.des import events_processed_total
from repro.sim import CampusScaleConfig, attach_campus, run_campus_waves

POPULATIONS = (10_000, 100_000)
ACTIVE_FRACTION = 0.01
BUILDINGS = 4
FLOORS = 3
HORIZON = 1800.0
SEED = 7
#: Max allowed growth in per-crossing cost per 10x population step.
MAX_COST_GROWTH = 1.5


def _measure(portables: int):
    config = CampusScaleConfig(
        seed=SEED,
        portables=portables,
        active_fraction=ACTIVE_FRACTION,
        buildings=BUILDINGS,
        floors=FLOORS,
        horizon=HORIZON,
    )
    events_before = events_processed_total()
    t0 = time.perf_counter()
    sim = attach_campus(config)
    t1 = time.perf_counter()
    result = run_campus_waves(config, sim)
    t2 = time.perf_counter()
    events = events_processed_total() - events_before
    wall = t2 - t0
    steady = t2 - t1
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "portables": portables,
        "active": result.active,
        "wall_s": wall,
        "setup_s": t1 - t0,
        "steady_s": steady,
        "handoffs": result.handoffs,
        "des_events": events,
        "us_per_crossing": 1e6 * wall / result.handoffs,
        "steady_us_per_crossing": 1e6 * steady / result.handoffs,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "peak_rss_kib": peak_rss_kib,
    }


def test_campus_scale_per_crossing_cost(benchmark, report, report_json):
    def run():
        return [_measure(n) for n in POPULATIONS]  # smallest first

    rows = once(benchmark, run)

    lines = [
        "Campus-scale handoff cost vs. population "
        f"(active fraction {ACTIVE_FRACTION}, {BUILDINGS} buildings x "
        f"{FLOORS} floors, horizon {HORIZON:.0f}s)",
        f"{'portables':>10} {'active':>7} {'wall (s)':>9} {'setup (s)':>10} "
        f"{'steady (s)':>11} {'handoffs':>9} {'us/crossing':>12} "
        f"{'steady us/crossing':>19} {'peak RSS (MiB)':>15}",
    ]
    for row in rows:
        lines.append(
            f"{row['portables']:>10} {row['active']:>7} {row['wall_s']:>9.2f} "
            f"{row['setup_s']:>10.2f} {row['steady_s']:>11.3f} "
            f"{row['handoffs']:>9} {row['us_per_crossing']:>12.1f} "
            f"{row['steady_us_per_crossing']:>19.1f} "
            f"{row['peak_rss_kib'] / 1024:>15.1f}"
        )
    for small, large in zip(rows, rows[1:]):
        for metric, label in (
            ("us_per_crossing", "per-crossing cost"),
            ("steady_us_per_crossing", "steady-state per-crossing cost"),
        ):
            growth = large[metric] / small[metric]
            lines.append(
                f"{label} growth {small['portables']} -> "
                f"{large['portables']}: {growth:.2f}x "
                f"(limit {MAX_COST_GROWTH}x)"
            )
            assert growth <= MAX_COST_GROWTH, (
                f"{label} grew {growth:.2f}x from {small['portables']} "
                f"to {large['portables']} portables (limit "
                f"{MAX_COST_GROWTH}x): the inactive population is leaking "
                "into a hot path"
            )
    report("campus_scale", "\n".join(lines))
    report_json(
        "campus_scale",
        [
            {
                "metric": "us_per_crossing",
                "value": row["us_per_crossing"],
                "units": "microseconds/handoff",
                "portables": row["portables"],
                "handoffs": row["handoffs"],
                "wall_s": row["wall_s"],
            }
            for row in rows
        ]
        + [
            {
                "metric": "steady_us_per_crossing",
                "value": row["steady_us_per_crossing"],
                "units": "microseconds/handoff",
                "portables": row["portables"],
                "handoffs": row["handoffs"],
                "setup_s": row["setup_s"],
                "steady_s": row["steady_s"],
            }
            for row in rows
        ]
        + [
            {
                "metric": "peak_rss",
                "value": row["peak_rss_kib"],
                "units": "KiB",
                "portables": row["portables"],
            }
            for row in rows
        ]
        + [
            {
                "metric": "des_events_per_s",
                "value": row["events_per_s"],
                "units": "events/second",
                "portables": row["portables"],
            }
            for row in rows
        ],
        config={
            "active_fraction": ACTIVE_FRACTION,
            "buildings": BUILDINGS,
            "floors": FLOORS,
            "horizon_s": HORIZON,
            "seed": SEED,
            "populations": list(POPULATIONS),
            "max_cost_growth": MAX_COST_GROWTH,
        },
    )
