"""The repo benchmark: paper experiments end to end, with a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figure6-serial --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads, the metrics and the layer map.

Every unit of work runs in a fresh interpreter (``unit.py``), with the
result cache off and the environment variables that would change what runs
cleared.  Each unit's output is checked against the digests and counts
pinned in ``pins.json`` (for unpinned seeds: against the run's first unit),
and a unit that differs, or fails a replication, counts as failed.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))

#: Per workload: the measured cost of one unit on the reference host (2
#: vCPU x86-64, Python 3.11, compiled DES core), which sets how many units
#: a run of ``--seconds`` makes; the replications one unit runs; and the
#: per-layer metrics that must not be 0 because the workload does that work.
WORKLOADS = {
    "figure6-serial": {
        "unit_s": 15.0,
        "replications": 26,
        "required": (
            "des.events", "des.self_s", "sim.self_s", "sim.crossings",
            "core.self_s", "core.admission.calls", "core.pnb.evals",
            "core.pnb.hit_ratio", "ext.numpy_scipy.self_s",
            "runtime.busy_ratio", "runtime.self_s", "runtime.result_bytes",
        ),
    },
    "ablations-pool2": {
        "unit_s": 7.5,
        "replications": 30,
        "required": (
            "des.events", "des.self_s", "sim.self_s", "core.self_s",
            "core.admission.calls", "core.pnb.evals", "ext.numpy_scipy.self_s",
            "runtime.busy_ratio", "runtime.self_s", "runtime.wait_s",
            "runtime.result_bytes", "obs.self_s",
        ),
    },
    "campus-100k": {
        "unit_s": 2.8,
        "replications": 1,
        "required": (
            "des.events", "sim.self_s", "sim.attach_s", "sim.wave_s",
            "sim.crossings", "sim.us_per_crossing", "core.self_s",
            "core.maintenance_s", "profiles.self_s", "runtime.busy_ratio",
            "runtime.result_bytes",
        ),
    },
}

#: Variables that would change what a unit runs or where it writes.
CLEARED_ENV = (
    "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_DES_RECYCLE", "REPRO_SHM",
    "REPRO_DISTRIBUTED_DIR",
)

#: Fresh-interpreter set-ups an untraced run measures at least.
SETUP_SAMPLES = 7

#: Wall-clock budget of one run, under the 180 s every run must end in.
DEADLINE_S = 170.0

OUT_DIR = ".perfbench"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_native(root):
    """Compile the optional DES core in place unless it is up to date.

    The build degrades to a warning without a compiler; the units then
    run on the pure kernel, which the run's provenance records.
    """
    source = os.path.join(root, "src", "repro", "des", "_speedups.c")
    if not os.path.exists(source):
        return 0.0
    built = glob.glob(os.path.join(root, "src", "repro", "des", "_speedups*.so"))
    if any(os.path.getmtime(path) >= os.path.getmtime(source) for path in built):
        return 0.0
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", os.path.join(".bench_build", "temp"),
         "--build-lib", os.path.join(".bench_build", "lib")],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=600,
    )
    return time.perf_counter() - started


def unit_env(root):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_unit(root, env, workload, seed, mode, outdir, deadline):
    """One unit in a fresh interpreter; its JSON, or None if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "unit.py"), workload, str(seed), mode]
    if outdir:
        cmd.append(outdir)
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The unit's session holds any pool workers it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"unit {workload} {mode} timed out")
        return None
    if proc.returncode != 0:
        log(f"unit {workload} {mode} exited with {proc.returncode}")
        return None
    return json.loads(stdout.decode().strip().splitlines()[-1])


def observed(unit):
    """The digest and exact counts a unit reports."""
    seen = {
        "digest": unit["digest"],
        "des.events": unit["des_events"],
        "sim.crossings": unit["crossings"],
    }
    if "trace" in unit:
        seen["core.pnb.evals"] = unit["trace"]["pnb_evals"]
    return seen


def check_unit(unit, spec, expected):
    """Why ``unit`` is wrong, or None.

    ``expected`` holds the pinned digest and counts for this seed or, for
    a seed with no pin, what the run's earlier units observed.
    """
    if unit["replications"] != spec["replications"] or unit["failures"]:
        return (f"{unit['replications']} replications, {unit['failures']} failed "
                f"(expected {spec['replications']})")
    if len(unit["des_cores"]) != 1:
        return f"DES cores {unit['des_cores']}"
    for key, value in observed(unit).items():
        if key in expected and expected[key] != value:
            return f"{key} = {value!r}, expected {expected[key]!r}"
    return None


def tail(samples):
    """The highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    percentile = max(0, math.floor(100.0 * (len(ordered) - 10) / len(ordered)))
    return ordered[index], percentile


def end_to_end(units, setups):
    walls = [w for u in units for w in u["wall_times"]]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "wall_s": median([u["wall_s"] for u in units]),
        "setup_s": median(setups),
        "replications_per_s": median([u["replications"] / u["wall_s"] for u in units]),
        "replication_p50_ms": 1000.0 * median(walls),
        "replication_tail_ms": 1000.0 * tail_s,
        "events_per_s": median([u["des_events"] / sum(u["wall_times"]) for u in units]),
        "peak_rss_mb": median(
            [max(u["rss_coordinator_mb"], u["rss_worker_mb"]) for u in units]
        ),
    }
    notes = {
        "replication_tail_ms": f"p{tail_pct} of {len(walls)} replications",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": "max(coordinator {:.1f}, largest worker {:.1f})".format(
            median([u["rss_coordinator_mb"] for u in units]),
            median([u["rss_worker_mb"] for u in units]),
        ),
    }
    return metrics, notes


def per_layer(traced, paired):
    def med(fn):
        return median([fn(u["trace"]) for u in traced])

    def self_s(*layers):
        return med(lambda t: sum(t["self_s"][name] for name in layers))

    events = traced[0]["des_events"]
    crossings = traced[0]["crossings"]
    return {
        "des.events": events,
        "des.self_s": self_s("des"),
        "des.us_per_event": (
            med(lambda t: 1e6 * t["self_s"]["des"] / events) if events else 0.0
        ),
        "sim.self_s": self_s("sim"),
        "sim.attach_s": med(lambda t: t["attach_s"]),
        "sim.wave_s": med(lambda t: t["wave_s"]),
        "sim.crossings": crossings,
        "sim.us_per_crossing": (
            med(lambda t: 1e6 * t["wave_s"] / crossings) if crossings else 0.0
        ),
        "core.self_s": self_s("core"),
        "core.admission.calls": traced[0]["trace"]["admission_calls"],
        "core.pnb.evals": traced[0]["trace"]["pnb_evals"],
        "core.pnb.hit_ratio": med(lambda t: t["pnb_hit_ratio"]),
        "core.maintenance_s": med(lambda t: t["maintenance_s"]),
        "profiles.self_s": self_s("profiles"),
        "ext.numpy_scipy.self_s": self_s("ext.numpy_scipy"),
        "domain.self_s": self_s("domain"),
        "other.self_s": self_s("other", "trace"),
        "runtime.busy_ratio": median(
            [sum(u["wall_times"]) / (u["elapsed"] * u["jobs"]) for u in paired]
        ),
        "runtime.self_s": self_s("runtime"),
        "runtime.wait_s": self_s("runtime.wait"),
        "runtime.result_bytes": traced[0]["trace"]["result_bytes"],
        "runtime.retries": sum(u["retries"] for u in traced + paired),
        "runtime.crashes": sum(u["crashes"] for u in traced + paired),
        "obs.self_s": self_s("obs"),
        "obs.tracing_overhead_ratio": (
            median([u["wall_s"] for u in traced]) / median([u["wall_s"] for u in paired])
        ),
        "trace.attributed_ratio": med(lambda t: t["attributed_ratio"]),
    }


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every seed the CLI uses (default 0: "
                        "the CLI's own seeds)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "repro", "__init__.py")):
        log("perfbench: run from the root of a repro checkout (no src/repro here)")
        return 2
    build_s = build_native(root)
    env = unit_env(root)
    spec = WORKLOADS[args.workload]
    declared = load_json(os.path.join(root, "BENCHMARK.json"))
    pin = load_json(os.path.join(HERE, "pins.json")).get(args.workload, {}).get(str(args.seed))
    tag = f"{args.workload}-s{args.seed}-{os.getpid()}"

    units, traced, paired, setups = [], [], [], []
    attempted = failed = 0
    first = {}  # the first value the run observed of each pinned quantity
    problems = []

    def attempt(mode, outdir=None):
        nonlocal attempted, failed
        attempted += 1
        unit = run_unit(root, env, args.workload, args.seed, mode, outdir, deadline)
        if unit is None:
            problem = "unit did not finish"
        else:
            problem = check_unit(unit, spec, pin if pin is not None else first)
            for key, value in observed(unit).items():
                first.setdefault(key, value)
        if problem is not None:
            failed += 1
            problems.append(f"{mode}: {problem}")
            return None
        return unit

    if args.trace:
        pairs = max(1, int(args.seconds // (4 * spec["unit_s"])))
        for k in range(pairs):
            plain = attempt("run")
            outdir = os.path.join(root, OUT_DIR, "trace", f"{tag}-{k}")
            unit = attempt("trace", outdir)
            if plain is not None and unit is not None:
                paired.append(plain)
                traced.append(unit)
    else:
        for _ in range(max(1, round(args.seconds / spec["unit_s"]))):
            unit = attempt("run")
            if unit is not None:
                units.append(unit)
                setups.append(unit["setup_s"])
        while units and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 10:
            probe = run_unit(root, env, args.workload, args.seed, "setup", None, deadline)
            if probe is not None:
                setups.append(probe["setup_s"])

    finished = units or traced
    cores = sorted({core for u in units + traced + paired for core in u["des_cores"]})
    if len(cores) > 1:
        problems.append(f"units ran on different DES cores: {cores}")
    metrics, notes, wanted = {}, {}, []
    if finished and not args.trace:
        metrics, notes = end_to_end(units, setups)
        wanted = declared["end_to_end"]
    elif finished:
        metrics = per_layer(traced, paired)
        metrics["failure_ratio"] = failed / attempted
        wanted = declared["per_layer"]
        missing = [name for name in spec["required"] if not metrics[name] > 0]
        if missing:
            problems.append(f"trace shows no work for: {', '.join(missing)}")

    provenance = dict(finished[0]["provenance"]) if finished else {}
    provenance.update(
        core=cores[0] if len(cores) == 1 else cores,
        nproc=os.cpu_count(),
        machine=platform.machine(),
        build_s=build_s,
        pinned=pin is not None,
    )
    units_of = {m["name"]: m["unit"] for m in wanted}
    if metrics and set(metrics) != set(units_of):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units_of))} are not "
                        "the ones BENCHMARK.json declares")
    correct = bool(finished) and failed == 0 and not problems
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={attempted} failed={failed} failure_ratio={failed / attempted:.4f}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("observed " + json.dumps(first, sort_keys=True))
    for problem in problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {value:16.6f} {units_of.get(name, '?')}{note}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": attempted,
        "failed": failed, "provenance": provenance, "observed": first,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of.get(name, "?")}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
