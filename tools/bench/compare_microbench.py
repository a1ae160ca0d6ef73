#!/usr/bin/env python3
"""Compare kernel_microbench results; fail CI on perf regressions.

Two modes, both reading google-benchmark ``--benchmark_format=json``
output (aggregate rows; the repo's benchmarks always emit
``repeats:N_median`` entries):

``--self FILE``
    Within one run, compare every dispatched benchmark against its
    scalar-pinned twin (``BM_Foo/N`` vs ``BM_FooScalar/N``). The
    dispatched variant must not be slower than the scalar reference
    by more than the margin — the cheap invariant that survives any
    host: if dispatch ever loses to the loop it replaced, the SIMD
    layer has regressed (or its tail handling went quadratic). On a
    scalar-only host the two variants are the same code and trivially
    pass. A scalar twin whose dispatched partner is missing from the
    run fails the gate (exit 1, naming each one), so renaming a
    benchmark cannot silently drop it out of the comparison.

``--baseline BASELINE FILE``
    Compare medians name-by-name against a committed baseline (e.g.
    BENCH_kernel_microbench.json), failing on >margin slowdowns and on
    any committed median the current run lacks (a benchmark that
    vanishes must not silently leave the gate). Benchmarks new in the
    current run are not gated until they are committed. Medians are
    only comparable on the machine that produced the baseline, so
    mismatched host fingerprints (host name, CPU count, nominal MHz)
    or a different resolved simd_isa downgrade the check to a warning
    instead of false-failing every contributor's laptop.

Exit status: 0 ok / skipped, 1 regression, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

MEDIAN = re.compile(r"^(?P<base>.+)/repeats:\d+_median$")
SCALAR_TWIN = re.compile(r"^(?P<family>BM_\w+?)Scalar(?P<args>(/.+)?)$")


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"compare_microbench: cannot read {path}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def medians(doc: dict) -> dict[str, float]:
    """Map 'BM_Name/arg' -> median real_time (ns)."""
    out: dict[str, float] = {}
    for row in doc.get("benchmarks", []):
        m = MEDIAN.match(row.get("name", ""))
        if m and row.get("run_type") == "aggregate":
            out[m.group("base")] = float(row["real_time"])
    return out


def fingerprint(doc: dict) -> tuple:
    ctx = doc.get("context", {})
    return (
        ctx.get("host_name"),
        ctx.get("num_cpus"),
        ctx.get("mhz_per_cpu"),
        ctx.get("simd_isa"),
    )


def check_self(doc: dict, margin: float) -> int:
    meds = medians(doc)
    pairs = 0
    failures = []
    missing = []
    for name, scalar_ns in meds.items():
        m = SCALAR_TWIN.match(name)
        if not m:
            continue
        dispatched = m.group("family") + m.group("args")
        if dispatched not in meds:
            missing.append(dispatched)
            continue
        pairs += 1
        got = meds[dispatched]
        limit = scalar_ns * (1.0 + margin)
        verdict = "ok" if got <= limit else "FAIL"
        print(f"  {dispatched}: dispatched {got:.0f} ns vs scalar "
              f"{scalar_ns:.0f} ns ({scalar_ns / got:.2f}x) {verdict}")
        if got > limit:
            failures.append(dispatched)
    if missing:
        print("compare_microbench: scalar twins without a dispatched "
              f"partner in the run: {', '.join(sorted(missing))}",
              file=sys.stderr)
    if pairs == 0:
        print("compare_microbench: no scalar/dispatched pairs found",
              file=sys.stderr)
        return 2
    if failures:
        print(f"compare_microbench: dispatched slower than scalar "
              f"(+{margin:.0%}) for: {', '.join(failures)}",
              file=sys.stderr)
    if failures or missing:
        return 1
    print(f"compare_microbench: {pairs} scalar/dispatched pairs ok")
    return 0


def check_baseline(base: dict, cur: dict, margin: float) -> int:
    if fingerprint(base) != fingerprint(cur):
        print("compare_microbench: host/ISA fingerprint differs from "
              f"baseline ({fingerprint(base)} vs {fingerprint(cur)}); "
              "medians not comparable — skipping", file=sys.stderr)
        return 0
    base_m, cur_m = medians(base), medians(cur)
    common = sorted(set(base_m) & set(cur_m))
    if not common:
        print("compare_microbench: no common benchmarks",
              file=sys.stderr)
        return 2
    failures = []
    for name in common:
        ratio = cur_m[name] / base_m[name]
        verdict = "ok" if ratio <= 1.0 + margin else "FAIL"
        print(f"  {name}: {base_m[name]:.0f} -> {cur_m[name]:.0f} ns "
              f"({ratio:.2f}x) {verdict}")
        if ratio > 1.0 + margin:
            failures.append(name)
    missing = sorted(set(base_m) - set(cur_m))
    if failures:
        print(f"compare_microbench: >{margin:.0%} regression vs "
              f"committed medians: {', '.join(failures)}",
              file=sys.stderr)
    if missing:
        print("compare_microbench: committed medians missing from the "
              f"current run: {', '.join(missing)}", file=sys.stderr)
    if failures or missing:
        return 1
    print(f"compare_microbench: {len(common)} benchmarks within "
          f"{margin:.0%} of baseline")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description="kernel_microbench regression gate")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--self", dest="self_file", metavar="FILE",
                      help="scalar-vs-dispatched within one JSON")
    mode.add_argument("--baseline", metavar="BASELINE",
                      help="committed baseline JSON")
    ap.add_argument("current", nargs="?",
                    help="current run JSON (baseline mode)")
    ap.add_argument("--margin", type=float, default=0.10,
                    help="allowed slowdown fraction (default 0.10)")
    args = ap.parse_args(argv)

    if args.self_file:
        return check_self(load(args.self_file), args.margin)
    if not args.current:
        ap.error("baseline mode needs the current-run JSON")
    return check_baseline(load(args.baseline), load(args.current),
                          args.margin)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
