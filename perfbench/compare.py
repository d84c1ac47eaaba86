"""Compare two sets of benchmark runs, metric by metric.

Every run of ``run.py`` appends its record to ``.perfbench/runs.jsonl`` in
the checkout it ran in.  Given the records of a base and a changed
checkout::

    python3 perfbench/compare.py BASE_runs.jsonl NEW_runs.jsonl

prints, per workload and metric, each side's median and quartiles and the
change of the medians, and marks a metric ``WORSE`` when the new median is
worse than the base by more than the bound in ``BENCHMARK.json``.  It
refuses (exit 2) to compare runs whose DES core, Python, numpy or scipy
differ, since those move every timing.  Records of failed runs are skipped.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

PROVENANCE_KEYS = ("core", "python", "numpy", "scipy")


def load(path):
    groups = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["correct"]:
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def provenance(records):
    return {tuple(r["provenance"].get(k) for k in PROVENANCE_KEYS) for r in records}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    worse = 0
    for key in sorted(set(base) & set(new)):
        sides = provenance(base[key]) | provenance(new[key])
        if len(sides) != 1:
            print(f"refusing to compare {key[0]}: runs differ in "
                  f"{'/'.join(PROVENANCE_KEYS)}: {sorted(sides)}", file=sys.stderr)
            return 2
        print(f"{key[0]} (trace={key[1]}): {len(base[key])} base runs, "
              f"{len(new[key])} new runs, core={sides.pop()[0]}")
        for name in sorted(set(base[key][0]["metrics"]) & set(new[key][0]["metrics"])):
            b = quartiles([r["metrics"][name] for r in base[key]])
            n = quartiles([r["metrics"][name] for r in new[key]])
            change = (n[1] - b[1]) / b[1] if b[1] else 0.0
            meta = metrics.get(name, {})
            flag = ""
            bound = meta.get("bound")
            if bound is not None:
                sign = 1.0 if meta["better"] == "lower" else -1.0
                if sign * change > bound:
                    flag = "  WORSE"
                    worse += 1
            print(f"  {name:28s} base {b[1]:14.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                  f"  new {n[1]:14.6g} [{n[0]:.6g}, {n[2]:.6g}]  {change:+8.2%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
