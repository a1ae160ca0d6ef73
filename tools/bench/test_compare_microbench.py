#!/usr/bin/env python3
"""Unit tests for compare_microbench.py (stdlib unittest only).

The CI lint job runs these; the gate script guards the perf CI legs,
so the gate itself needs pinning: the median/aggregate row filter,
the scalar-twin pairing, the host-fingerprint skip, and the 10%
baseline margin all get a synthetic-JSON test here. Run with:

    python3 -m unittest discover -s tools/bench -p 'test_*.py'
"""

from __future__ import annotations

import io
import json
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import compare_microbench as cm


def doc(rows, host="ci-host", cpus=8, mhz=3200, isa="avx2"):
    """A minimal google-benchmark JSON document."""
    return {
        "context": {
            "host_name": host,
            "num_cpus": cpus,
            "mhz_per_cpu": mhz,
            "simd_isa": isa,
        },
        "benchmarks": rows,
    }


def median_row(base, ns, repeats=7):
    return {
        "name": f"{base}/repeats:{repeats}_median",
        "run_type": "aggregate",
        "real_time": ns,
    }


def iteration_row(base, ns):
    return {"name": base, "run_type": "iteration", "real_time": ns}


def run_quiet(fn, *args):
    """Call fn swallowing its prints; return its result."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        return fn(*args)


class MediansTest(unittest.TestCase):
    def test_keeps_only_aggregate_median_rows(self):
        d = doc([
            median_row("BM_Gemm/64", 100.0),
            iteration_row("BM_Gemm/64", 999.0),
            {"name": "BM_Gemm/64/repeats:7_mean",
             "run_type": "aggregate", "real_time": 888.0},
            {"name": "BM_Gemm/64/repeats:7_median",
             "run_type": "iteration", "real_time": 777.0},
        ])
        self.assertEqual({"BM_Gemm/64": 100.0}, cm.medians(d))

    def test_strips_repeats_suffix_keeping_args(self):
        d = doc([median_row("BM_Conv/8/3/1", 42.0, repeats=3)])
        self.assertEqual({"BM_Conv/8/3/1": 42.0}, cm.medians(d))

    def test_empty_document(self):
        self.assertEqual({}, cm.medians({}))


class FingerprintTest(unittest.TestCase):
    def test_covers_host_cpus_mhz_and_isa(self):
        a = doc([])
        self.assertEqual(("ci-host", 8, 3200, "avx2"),
                         cm.fingerprint(a))
        for key, value in [("host_name", "other"), ("num_cpus", 4),
                           ("mhz_per_cpu", 2000),
                           ("simd_isa", "scalar")]:
            b = doc([])
            b["context"][key] = value
            self.assertNotEqual(cm.fingerprint(a),
                                cm.fingerprint(b), key)


class CheckSelfTest(unittest.TestCase):
    def test_dispatched_not_slower_passes(self):
        d = doc([
            median_row("BM_GemmScalar/64", 200.0),
            median_row("BM_Gemm/64", 90.0),
        ])
        self.assertEqual(0, run_quiet(cm.check_self, d, 0.10))

    def test_dispatched_slower_than_margin_fails(self):
        d = doc([
            median_row("BM_GemmScalar/64", 100.0),
            median_row("BM_Gemm/64", 125.0),
        ])
        self.assertEqual(1, run_quiet(cm.check_self, d, 0.10))

    def test_margin_is_inclusive(self):
        d = doc([
            median_row("BM_GemmScalar/64", 100.0),
            median_row("BM_Gemm/64", 110.0),
        ])
        self.assertEqual(0, run_quiet(cm.check_self, d, 0.10))

    def test_no_twins_is_a_usage_error(self):
        d = doc([median_row("BM_Gemm/64", 100.0)])
        self.assertEqual(2, run_quiet(cm.check_self, d, 0.10))

    def test_twin_without_dispatched_partner_fails(self):
        d = doc([
            median_row("BM_LonelyScalar/8", 50.0),
            median_row("BM_LonelyScalar/9", 60.0),
            median_row("BM_GemmScalar/64", 100.0),
            median_row("BM_Gemm/64", 80.0),
        ])
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            self.assertEqual(1, cm.check_self(d, 0.10))
        self.assertIn("BM_Lonely/8, BM_Lonely/9", err.getvalue())

    def test_args_must_match_between_twins(self):
        d = doc([
            median_row("BM_GemmScalar/64", 100.0),
            median_row("BM_Gemm/128", 500.0),
        ])
        self.assertEqual(2, run_quiet(cm.check_self, d, 0.10))


class CheckBaselineTest(unittest.TestCase):
    def test_within_margin_passes(self):
        base = doc([median_row("BM_Gemm/64", 100.0)])
        cur = doc([median_row("BM_Gemm/64", 109.0)])
        self.assertEqual(0, run_quiet(cm.check_baseline, base, cur,
                                      0.10))

    def test_over_margin_fails(self):
        base = doc([median_row("BM_Gemm/64", 100.0)])
        cur = doc([median_row("BM_Gemm/64", 111.0)])
        self.assertEqual(1, run_quiet(cm.check_baseline, base, cur,
                                      0.10))

    def test_fingerprint_mismatch_skips_instead_of_failing(self):
        base = doc([median_row("BM_Gemm/64", 100.0)], host="laptop")
        cur = doc([median_row("BM_Gemm/64", 900.0)], host="ci-host")
        self.assertEqual(0, run_quiet(cm.check_baseline, base, cur,
                                      0.10))

    def test_isa_change_alone_skips(self):
        base = doc([median_row("BM_Gemm/64", 100.0)], isa="avx2")
        cur = doc([median_row("BM_Gemm/64", 900.0)], isa="scalar")
        self.assertEqual(0, run_quiet(cm.check_baseline, base, cur,
                                      0.10))

    def test_no_common_benchmarks_is_a_usage_error(self):
        base = doc([median_row("BM_Old/1", 100.0)])
        cur = doc([median_row("BM_New/1", 100.0)])
        self.assertEqual(2, run_quiet(cm.check_baseline, base, cur,
                                      0.10))

    def test_benchmarks_new_in_the_run_are_not_gated(self):
        base = doc([median_row("BM_Gemm/64", 100.0)])
        cur = doc([median_row("BM_Gemm/64", 105.0),
                   median_row("BM_Added/1", 999.0)])
        self.assertEqual(0, run_quiet(cm.check_baseline, base, cur,
                                      0.10))

    def test_committed_median_missing_from_the_run_fails(self):
        base = doc([median_row("BM_Gemm/64", 100.0),
                    median_row("BM_Gone/1", 1.0),
                    median_row("BM_Gone/2", 2.0)])
        cur = doc([median_row("BM_Gemm/64", 105.0)])
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            self.assertEqual(1, cm.check_baseline(base, cur, 0.10))
        self.assertIn("BM_Gone/1, BM_Gone/2", err.getvalue())

    def test_missing_median_on_a_foreign_host_still_skips(self):
        base = doc([median_row("BM_Gone/1", 1.0)], host="laptop")
        cur = doc([median_row("BM_Gemm/64", 105.0)], host="ci-host")
        self.assertEqual(0, run_quiet(cm.check_baseline, base, cur,
                                      0.10))


class MainRoundTripTest(unittest.TestCase):
    def write(self, tmp, name, document):
        path = Path(tmp) / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_self_mode_end_to_end(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = self.write(tmp, "good.json", doc([
                median_row("BM_GemmScalar/64", 200.0),
                median_row("BM_Gemm/64", 90.0),
            ]))
            self.assertEqual(0, run_quiet(cm.main, ["--self", good]))

    def test_baseline_mode_end_to_end_with_margin_flag(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = self.write(
                tmp, "base.json",
                doc([median_row("BM_Gemm/64", 100.0)]))
            cur = self.write(
                tmp, "cur.json",
                doc([median_row("BM_Gemm/64", 140.0)]))
            self.assertEqual(
                1, run_quiet(cm.main, ["--baseline", base, cur]))
            # A wider margin admits the same slowdown.
            self.assertEqual(
                0, run_quiet(cm.main, ["--baseline", base, cur,
                                       "--margin", "0.5"]))

    def test_unreadable_file_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            broken = Path(tmp) / "broken.json"
            broken.write_text("{not json")
            with self.assertRaises(SystemExit) as ctx:
                run_quiet(cm.main, ["--self", str(broken)])
            self.assertEqual(2, ctx.exception.code)


if __name__ == "__main__":
    unittest.main()
