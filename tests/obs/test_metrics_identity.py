"""The observability contract: metering a run never changes its outputs.

A metered simulation must be bit-identical to an unmetered one — the
domain counters read state; they draw no random numbers, schedule no
events, and mutate no model objects.  These tests run the same scenarios
with the metrics registry off and on and require byte-equal results.
"""

import dataclasses

from repro.experiments.adaptation_value import (
    AdaptationValueConfig,
    simulate_adaptation_policy,
)
from repro.obs import MetricsRegistry, use_registry
from repro.sim import TwoCellSimulator, figure6_config


def _run_twocell(seed=5, horizon=120.0, policy="probabilistic"):
    config = figure6_config(policy=policy, horizon=horizon, seed=seed)
    return TwoCellSimulator(config).run()


def _stats_tuple(result):
    return dataclasses.astuple(result.stats)


def _counters(registry):
    return {m.name: m.value for m in registry.instruments() if m.kind == "counter"}


def test_metered_twocell_run_is_bit_identical():
    baseline = _stats_tuple(_run_twocell())
    registry = MetricsRegistry()
    with use_registry(registry):
        metered = _stats_tuple(_run_twocell())
    assert metered == baseline


def test_metered_twocell_across_policies():
    for policy in ("plain", "probabilistic"):
        baseline = _stats_tuple(_run_twocell(policy=policy, horizon=60.0))
        with use_registry(MetricsRegistry()):
            observed = _stats_tuple(_run_twocell(policy=policy, horizon=60.0))
        assert observed == baseline, policy


def test_metered_campus_slice_is_bit_identical():
    # End-to-end over the full resource-management pipeline (admission,
    # adaptation, reservations, handoffs) — the richest metrics surface.
    from repro.sim import run_campus_day

    def snapshot():
        result = run_campus_day(day_length=900.0, walkers=2, patrons=5)
        stats = result.stats
        return (
            stats.new_requests,
            stats.admitted,
            stats.handoff_attempts,
            stats.handoff_drops,
            result.static_upgrades,
        )

    baseline = snapshot()
    registry = MetricsRegistry()
    with use_registry(registry):
        metered = snapshot()
    assert metered == baseline
    assert _counters(registry)["handoffs_total"] > 0


def test_metered_adaptation_value_is_bit_identical():
    # The adaptive policy drives the max-min protocol through every fade.
    config = AdaptationValueConfig(adaptive=True, duration=60.0)
    baseline = simulate_adaptation_policy(config)
    registry = MetricsRegistry()
    with use_registry(registry):
        metered = simulate_adaptation_policy(config)
    assert metered == baseline
    counters = _counters(registry)
    assert counters["adaptation_rounds_total"] > 0
    assert counters["adaptation_commits_total"] > 0
    assert counters["adaptation_sweeps_total"] > 0


def test_adaptation_counters_match_the_protocol():
    from repro.experiments.ablations import _adaptation_scenario

    registry = MetricsRegistry()
    with use_registry(registry):
        protocol = _adaptation_scenario(True, seed=3)
    counters = _counters(registry)
    assert counters["adaptation_rounds_total"] == protocol.rounds_initiated
    assert counters["adaptation_commits_total"] > 0
    assert counters["adaptation_sweeps_total"] > 0
