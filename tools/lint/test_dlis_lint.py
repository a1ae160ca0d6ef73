#!/usr/bin/env python3
"""Unit tests for dlis_lint.py's path-scoped rules (stdlib unittest).

Vector code lives only under src/backend/simd/; the simd-intrinsics
rule keeps raw x86 and Arm intrinsics out of every other directory,
including Arm ones no kernel in the tree uses today. The float-sentinel
rule has no exempt directory. These tests pin both scopes and the
same-line suppression on temporary files. Run with:

    python3 -m unittest discover -s tools/lint -p 'test_*.py'
"""

from __future__ import annotations

import tempfile
import unittest
from pathlib import Path

import dlis_lint

INTRINSIC_LINES = {
    "arm header": "#include <arm_neon.h>\n",
    "arm fma": "float32x4_t f(float32x4_t a) { return vfmaq_f32(a, a, a); }\n",
    "x86 fma": "__m256 g(__m256 a) { return _mm256_fmadd_ps(a, a, a); }\n",
}


class LintCase(unittest.TestCase):
    RULE = ""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def lint(self, rel: str, text: str) -> list[str]:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return [v for v in dlis_lint.lint_file(path)
                if f"[{self.RULE}]" in v]


class SimdIntrinsicsRule(LintCase):
    RULE = "simd-intrinsics"

    def test_flagged_outside_simd_directory(self):
        for what, line in INTRINSIC_LINES.items():
            with self.subTest(what):
                found = self.lint("src/backend/gemm.cpp", line)
                self.assertTrue(found, f"{what} not flagged")
                self.assertIn("gemm.cpp:1:", found[0])

    def test_allowed_inside_simd_directory(self):
        for what, line in INTRINSIC_LINES.items():
            with self.subTest(what):
                self.assertEqual(
                    self.lint("src/backend/simd/kernels_avx2.cpp", line),
                    [])

    def test_same_line_suppression(self):
        for what, line in INTRINSIC_LINES.items():
            with self.subTest(what):
                suppressed = (line.rstrip("\n")
                              + "  // dlis-lint: allow(simd-intrinsics)\n")
                self.assertEqual(
                    self.lint("src/nn/conv2d.cpp", suppressed), [])

    def test_suppressing_another_rule_does_not_suppress(self):
        line = ("#include <arm_neon.h>"
                "  // dlis-lint: allow(raw-assert)\n")
        self.assertTrue(self.lint("src/nn/conv2d.cpp", line))


class FloatSentinelRule(LintCase):
    RULE = "float-sentinel"
    LINE = "bool big(float x) { return x > std::numeric_limits<float>::max(); }\n"

    def test_flagged_under_analysis(self):
        found = self.lint("src/analysis/verifier.cpp", self.LINE)
        self.assertTrue(found, "float sentinel under src/analysis/ not flagged")
        self.assertIn("std::isfinite", found[0])

    def test_flagged_elsewhere(self):
        self.assertTrue(self.lint("src/nn/batchnorm.cpp", self.LINE))


if __name__ == "__main__":
    unittest.main()
