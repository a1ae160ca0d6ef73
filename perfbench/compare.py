#!/usr/bin/env python3
"""Compare perfbench run records of two commits, metric by metric.

    python3 perfbench/compare.py --base a1.json a2.json ... \\
        --new b1.json b2.json ...

Each file is a record written by `perfbench/run.py --out`. Records
whose host and build fingerprints differ are never compared: the tool
refuses with exit code 2. For every workload and end-to-end metric it
prints the median of each side and the change, and exits 1 if a metric
got worse by more than its BENCHMARK.json bound. Per-layer metrics are
printed without a verdict (they have no bound).
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list) -> list:
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    return records


def by_workload(records: list) -> dict:
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(
                name, []).append(m["value"])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()

    base, new = load(args.base), load(args.new)
    prints = {}  # per workload: the fingerprint carries its thread count
    for r in base + new:
        prints.setdefault(r["workload"], set()).add(
            json.dumps(r["fingerprint"], sort_keys=True))
    for workload, seen in sorted(prints.items()):
        if len(seen) != 1:
            print(f"compare: {workload}: host/build fingerprints differ; "
                  "refusing to compare:", file=sys.stderr)
            for p in sorted(seen):
                print("  " + p, file=sys.stderr)
            return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    worse = 0
    b, n = by_workload(base), by_workload(new)
    for workload in sorted(set(b) & set(n)):
        for name in sorted(set(b[workload]) & set(n[workload])):
            mb = statistics.median(b[workload][name])
            mn = statistics.median(n[workload][name])
            change = (mn - mb) / mb if mb else 0.0
            rule = rules.get(name, {})
            verdict = ""
            if "bound" in rule:
                sign = 1.0 if rule["better"] == "lower" else -1.0
                bad = sign * change > rule["bound"]
                worse += bad
                verdict = "WORSE" if bad else "ok"
            print(f"{workload:26s} {name:32s} {mb:12.6g} -> {mn:12.6g} "
                  f"{change:+8.2%} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
