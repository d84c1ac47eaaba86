"""One benchmark unit: a workload run once in a fresh interpreter.

``run.py`` starts this script once per unit, so nothing a run warms up
(imports, memo tables, allocator state) carries over into the next one::

    python3 perfbench/unit.py WORKLOAD SEED MODE [OUTDIR]

with ``PYTHONPATH`` pointing at the checkout's ``src``.  ``MODE`` is
``setup`` (imports and runner construction only), ``run`` (one untraced
run) or ``trace`` (one traced run; its spans and profiles are written to
``OUTDIR`` when it ends).  The script prints one JSON object on its last
line of standard output.

Each workload drives the public experiment drivers through
``repro.runtime.ExperimentRunner``, as ``python -m repro`` does, with the
result cache off.  ``SEED`` offsets every seed the CLI uses, so seed 0
reproduces the CLI's own output.
"""

import time

_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from repro.runtime import ExperimentRunner  # noqa: E402

#: Figure 6 sub-grid: all four windows, and the strict end, the middle and
#: the permissive end of the CLI's P_QOS sweep.
FIGURE6_PQOS = (0.0005, 0.01, 0.3)


def figure6_serial(seed):
    from repro.experiments import render_figure6, run_figure6, run_plain_baseline
    from repro.experiments.figure6 import DEFAULT_WINDOWS

    seeds = (1 + seed, 2 + seed)

    def run(runner):
        points = run_figure6(
            windows=DEFAULT_WINDOWS, p_qos_values=FIGURE6_PQOS, seeds=seeds,
            horizon=200.0, runner=runner,
        )
        baseline = run_plain_baseline(seeds=seeds, horizon=200.0, runner=runner)
        return render_figure6(points, baseline)

    return 1, run


def ablations_pool2(seed):
    from repro.experiments import (
        mlist_overhead,
        pool_fraction_sweep,
        prediction_levels,
        render_mlist_overhead,
        render_pool_fraction,
        render_prediction_levels,
        render_static_vs_predictive,
        static_vs_predictive,
    )
    from repro.obs import MetricsRegistry, use_registry

    def run(runner):
        # Installed the way --metrics-json installs it, so workers collect
        # metrics and the coordinator merges their snapshots.
        registry = MetricsRegistry()
        with use_registry(registry):
            parts = [
                # The M(l) ablation keeps the CLI's seeds for every SEED: the
                # adaptation protocol of _adaptation_scenario never settles
                # for some seeds (10, 13, 15, 25 and 38 below 60), and a run
                # must not hang.
                render_mlist_overhead(mlist_overhead(seeds=(3, 4, 5), runner=runner)),
                render_prediction_levels(
                    prediction_levels(seed=1996 + seed, runner=runner)
                ),
                render_pool_fraction(
                    pool_fraction_sweep(trials=200, seed=9 + seed, runner=runner)
                ),
                render_static_vs_predictive(
                    static_vs_predictive(
                        seeds=(1 + seed, 2 + seed), horizon=200.0, runner=runner
                    )
                ),
            ]
        registry.to_json()
        return "\n\n".join(parts)

    return 2, run


def campus_100k(seed):
    from repro.sim import simulate_campus_scale

    # The config ``python -m repro campus`` builds with its defaults.
    config = {
        "seed": 7 + seed,
        "portables": 100_000,
        "active_fraction": 0.01,
        "buildings": 4,
        "floors": 3,
        "horizon": 1800.0,
        "incremental": True,
    }

    def run(runner):
        (result,) = runner.run_many(simulate_campus_scale, [config], label="campus")
        return repr(result)

    return 1, run


WORKLOADS = {
    "figure6-serial": figure6_serial,
    "ablations-pool2": ablations_pool2,
    "campus-100k": campus_100k,
}


class BenchRunner(ExperimentRunner):
    """An ExperimentRunner that tallies what its batches return.

    ``crossings`` sums the handoff attempts of every result carrying
    teletraffic counts.  A traced runner also pickles each result to count
    ``result_bytes`` and, on the process backend, profiles the coordinator
    around each batch (serially the replications already run under their
    own profiler, and only one profiler can be active).
    """

    def __init__(self, traced, **kwargs):
        super().__init__(profile=traced, **kwargs)
        self.traced = traced
        self.crossings = 0
        self.result_bytes = 0
        self.coordinator = (
            cProfile.Profile() if traced and self.backend == "process" else None
        )

    def run_many(self, fn, configs, label=None):
        if self.coordinator is not None:
            self.coordinator.enable()
        try:
            results = super().run_many(fn, configs, label)
        finally:
            if self.coordinator is not None:
                self.coordinator.disable()
        for result in results:
            stats = getattr(result, "stats", result)
            self.crossings += getattr(stats, "handoff_attempts", 0)
            if self.traced:
                self.result_bytes += len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        return results


def _provenance():
    import numpy
    import scipy

    from repro.des import native_available

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "native_available": native_available(),
    }


def _rss_mb(who):
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest
    # reaped child's peak, i.e. the largest pool worker.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _trace_metrics(runner, collector, wall, outdir):
    import layers
    from repro.obs import write_pstats, write_spans_jsonl

    fold = layers.LayerFold()
    worker = runner.profile_stats
    selfs = fold.self_times(worker)
    lane = wall
    coordinator = {}
    if runner.coordinator is not None:
        runner.coordinator.create_stats()
        coordinator = runner.coordinator.stats
        for layer, seconds in fold.self_times(coordinator).items():
            selfs[layer] += seconds
        # Workers run beside the coordinator, so their replication time is
        # traced time on lanes of its own.
        lane += sum(runner.telemetry.wall_times)
    else:
        # Serially, the runner's own time is each sweep's span less the
        # attempts it ran.
        spans = collector.spans()
        selfs["runtime"] += sum(s.duration for s in spans if s.kind == "sweep") - sum(
            s.duration for s in spans if s.kind == "attempt"
        )

    os.makedirs(outdir, exist_ok=True)
    write_spans_jsonl(os.path.join(outdir, "spans.jsonl"), collector.spans())
    write_pstats(os.path.join(outdir, "worker.pstats"), worker)
    if coordinator:
        write_pstats(os.path.join(outdir, "coordinator.pstats"), coordinator)

    nonblocking_calls = layers.calls(worker, "repro/core/probabilistic.py", "nonblocking")
    pnb_evals = layers.calls(worker, "repro/core/probabilistic.py", "nonblocking_probability")
    return {
        "self_s": selfs,
        "attributed_ratio": sum(selfs.values()) / lane,
        "admission_calls": layers.calls(
            worker, "repro/core/probabilistic.py", "admit_new"
        ),
        "pnb_evals": pnb_evals,
        "pnb_hit_ratio": (
            1.0 - pnb_evals / nonblocking_calls if nonblocking_calls else 0.0
        ),
        "attach_s": layers.cumulative(worker, "repro/sim/simulator.py", "add_portable"),
        "wave_s": layers.cumulative(worker, "repro/sim/simulator.py", "move_many"),
        "maintenance_s": layers.cumulative(
            worker, "repro/core/manager.py", "refresh_static_states"
        ),
        "result_bytes": runner.result_bytes,
    }


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    traced = mode == "trace"

    jobs, run = WORKLOADS[workload](seed)
    runner = BenchRunner(traced, jobs=jobs)
    setup_s = time.perf_counter() - _STARTED

    out = {"workload": workload, "seed": seed, "mode": mode, "setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    collector, scope = None, contextlib.nullcontext()
    if traced:
        from repro.obs import SpanCollector, use_span_collector

        collector = SpanCollector()
        scope = use_span_collector(collector)
    with scope:
        started = time.perf_counter()
        text = run(runner)
        wall = time.perf_counter() - started

    telemetry = runner.telemetry
    out.update(
        wall_s=wall,
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        replications=telemetry.replications,
        wall_times=telemetry.wall_times,
        elapsed=telemetry.elapsed,
        jobs=runner.jobs,
        des_events=telemetry.des_events,
        des_cores=telemetry.des_cores,
        failures=telemetry.failures,
        retries=telemetry.retries,
        crashes=telemetry.crashes,
        crossings=runner.crossings,
        rss_coordinator_mb=_rss_mb(resource.RUSAGE_SELF),
        rss_worker_mb=_rss_mb(resource.RUSAGE_CHILDREN),
        provenance=_provenance(),
    )
    if traced:
        out["trace"] = _trace_metrics(runner, collector, wall, argv[3])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
