#!/usr/bin/env python3
"""Repository benchmark: build perfbench, run one workload, print results.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--out record.json]
    python3 perfbench/run.py --self-test

Run from the repository root. The harness and the dlis libraries are
built from source into .bench_build/perfbench (Release). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. A per-layer metric of
a layer the workload does not run reads 0. --out also writes the full
record, with the host and build fingerprint, for perfbench/compare.py.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build() -> None:
    """Configure once, then build incrementally; the log stays on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no dlis sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (" + " ".join(cmd) + ")")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec[key]]
        if len(set(names)) != len(names) or not all(map(NAME.match, names)):
            fail(f"BENCHMARK.json: bad or repeated {key} metric name")
    if len(spec["end_to_end"]) > 16 or len(spec["per_layer"]) > 128:
        fail("BENCHMARK.json: too many metrics")
    return spec


def contract_metrics(record: dict, declared: list, trace: bool) -> dict:
    """Check the harness output against BENCHMARK.json's metric list."""
    got = record["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    for name, m in got.items():
        if want.get(name) != m["unit"]:
            fail(f"{record['workload']}: metric {name} [{m['unit']}] "
                 "is not declared in BENCHMARK.json")
    missing = [n for n in want if n not in got]
    if missing and not trace:
        fail(f"{record['workload']}: end-to-end metrics missing: {missing}")
    out = {}
    for name, unit in want.items():
        value = got[name]["value"] if name in got else 0.0
        out[name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full record here")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    build()
    if args.self_test:
        return subprocess.run([BINARY, "--self-test"]).returncode
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload}: harness exited {proc.returncode}")
    record = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = contract_metrics(record, declared, bool(args.trace))
    for line in lines[:-1]:
        print(line)
    print(f"fingerprint: {json.dumps(record['fingerprint'])}")
    ratio = record["failed"] / max(record["attempted"], 1)
    print(f"failed_ratio: {ratio:.6g} ({record['failed']} of "
          f"{record['attempted']})")
    for name, m in metrics.items():
        note = "" if name in record["metrics"] else "  (not run here)"
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{note}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print(json.dumps({"correct": record["correct"] and ratio == 0.0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
