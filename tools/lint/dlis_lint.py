#!/usr/bin/env python3
"""dlis project lint: enforce project-specific C++ rules.

clang-tidy covers generic bug classes; this tool enforces the rules
that are *policy* in this repository and that no off-the-shelf check
expresses:

  raw-assert       No raw ``assert()`` / ``abort()`` (or <cassert>):
                   failures must throw through DLIS_CHECK (user error,
                   FatalError) or DLIS_ASSERT (library bug, PanicError)
                   so tests and the serving engine can observe them.
  nondeterminism   No ``rand()``/``srand()``/``time()``/
                   ``std::random_device`` outside src/core/rng.*: every
                   experiment must be reproducible from a seed.
  naked-new        No naked ``new``: ownership goes through
                   std::make_unique / containers.
  kernel-heap-alloc
                   No ``std::vector<float>`` workspaces in src/backend/
                   kernels: per-call heap buffers are the allocation
                   churn the ScratchArena removed — take the workspace
                   from KernelPolicy::arena instead (see
                   src/core/scratch_arena.hpp).
  serve-atomic     No ``std::atomic`` definitions in src/serve/:
                   serving metrics belong in the central
                   obs::MetricsRegistry (src/obs/registry.hpp) so they
                   are scrapeable and windowed, not scattered ad-hoc
                   counters. Lifecycle flags (stop/accepting bits) may
                   stay atomics with a justified same-line
                   ``dlis-lint: allow(serve-atomic)``.
  simd-intrinsics  No raw SIMD intrinsics (``<immintrin.h>``,
                   ``<arm_neon.h>``, ``_mm*``/``v*q_f32`` calls)
                   outside src/backend/simd/: vector code goes through
                   the dispatch layer (simd::activeKernels()) so every
                   call site keeps a scalar reference path and the
                   binary stays runnable on any host.
  float-sentinel   No ``std::numeric_limits<float>`` sentinel
                   comparisons: hand-rolled max()/infinity()/lowest()
                   range checks are how overflow bugs hide (float max
                   compared against a double, infinity() used where a
                   NaN slips past). Ask ``std::isfinite`` instead; it
                   rejects NaN and both infinities in one test.

Suppress a finding with a same-line comment::

    legacy_call();  // dlis-lint: allow(raw-assert)

Usage::

    python3 tools/lint/dlis_lint.py [path ...]   # default: src

Exits nonzero if any violation is found, printing file:line: [rule].
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# Files exempt from a specific rule (path suffix match).
RULE_EXEMPT = {
    "nondeterminism": ("src/core/rng.hpp", "src/core/rng.cpp"),
}

# Rules that apply only under specific path prefixes (substring match
# on the posix path, so relative and absolute invocations both work).
RULE_ONLY = {
    "kernel-heap-alloc": ("src/backend/",),
    "serve-atomic": ("src/serve/",),
}

# Rules suspended under specific path prefixes — the inverse of
# RULE_ONLY, for rules that apply everywhere *except* a directory
# where the flagged construct is the point (substring match, as
# above).
RULE_EXCEPT = {
    "simd-intrinsics": ("src/backend/simd/",),
}

RULES = [
    (
        "raw-assert",
        re.compile(r"(?<![\w.])(assert|abort)\s*\("),
        "use DLIS_CHECK/DLIS_ASSERT (throwing) instead of {match}()",
    ),
    (
        "raw-assert",
        re.compile(r"#\s*include\s*<(cassert|assert\.h)>"),
        "do not include {match}; use core/error.hpp",
    ),
    (
        "nondeterminism",
        re.compile(r"(?<![\w.])(rand|srand)\s*\("),
        "{match}() is unseeded; draw from a dlis::Rng stream",
    ),
    (
        "nondeterminism",
        re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
        "wall-clock seeding breaks reproducibility; use dlis::Rng",
    ),
    (
        "nondeterminism",
        re.compile(r"std\s*::\s*random_device"),
        "std::random_device is unseeded; derive streams from dlis::Rng",
    ),
    (
        "naked-new",
        re.compile(r"(?<![\w.])new\s+[A-Za-z_(:]"),
        "naked new; use std::make_unique or a container",
    ),
    (
        "kernel-heap-alloc",
        re.compile(r"std\s*::\s*vector\s*<\s*float\s*>"),
        "per-call heap workspace in a kernel; allocate from "
        "KernelPolicy::arena (core/scratch_arena.hpp)",
    ),
    (
        "serve-atomic",
        re.compile(r"std\s*::\s*atomic\s*<"),
        "ad-hoc atomic in the serving layer; publish through "
        "obs::MetricsRegistry (obs/registry.hpp), or justify a "
        "lifecycle flag with allow(serve-atomic)",
    ),
    (
        "simd-intrinsics",
        re.compile(
            r"#\s*include\s*<(immintrin\.h|arm_neon\.h|x86intrin\.h"
            r"|emmintrin\.h|avxintrin\.h)>"
        ),
        "raw intrinsics header {match} outside src/backend/simd/; "
        "route vector code through simd::activeKernels()",
    ),
    (
        "simd-intrinsics",
        re.compile(
            r"(?<![\w.])(_mm\d{0,3}_[a-z0-9_]+"
            r"|__m(?:128|256|512)[id]?\b"
            r"|v[a-z][a-z0-9_]*q?_[suf](?:8|16|32|64)"
            r"|float32x[24]_t|int32x[24]_t|uint32x[24]_t)",
        ),
        "raw SIMD intrinsic {match} outside src/backend/simd/; "
        "route vector code through simd::activeKernels()",
    ),
    (
        "float-sentinel",
        re.compile(r"std\s*::\s*numeric_limits\s*<\s*float\s*>"),
        "float sentinel comparison; use std::isfinite, which rejects "
        "NaN and both infinities",
    ),
]

ALLOW = re.compile(r"dlis-lint:\s*allow\(([a-z-]+)\)")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, keeping newlines
    (and therefore line numbers) intact."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | str | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        else:  # str or char
            quote = '"' if state == "str" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
            out.append(" ")
        i += 1
    return "".join(out)


def lint_file(path: Path) -> list[str]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    violations = []
    posix = path.as_posix()
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        original = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        allowed = set(ALLOW.findall(original))
        for rule, pattern, message in RULES:
            if rule in allowed:
                continue
            if any(posix.endswith(e) for e in RULE_EXEMPT.get(rule, ())):
                continue
            only = RULE_ONLY.get(rule)
            if only is not None and not any(o in posix for o in only):
                continue
            if any(e in posix for e in RULE_EXCEPT.get(rule, ())):
                continue
            m = pattern.search(line)
            if m:
                what = m.group(1) if pattern.groups else m.group(0)
                violations.append(
                    f"{path}:{lineno}: [{rule}] "
                    + message.format(match=what)
                )
    return violations


def collect_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_file():
            files.append(path)
        else:
            files.extend(
                f
                for f in sorted(path.rglob("*"))
                if f.suffix in SOURCE_SUFFIXES and f.is_file()
            )
    return files


def main(argv: list[str]) -> int:
    targets = argv or ["src"]
    files = collect_files(targets)
    if not files:
        print(f"dlis_lint: no source files under {targets}",
              file=sys.stderr)
        return 2
    violations: list[str] = []
    for f in files:
        violations.extend(lint_file(f))
    for v in violations:
        print(v)
    print(
        f"dlis_lint: {len(files)} files, {len(violations)} violation(s)",
        file=sys.stderr,
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
