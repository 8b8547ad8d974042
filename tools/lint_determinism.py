#!/usr/bin/env python3
"""Determinism lint: flags C++ patterns that make solver output run-dependent.

The placement/clustering flow promises bit-identical results for a fixed seed
(ROADMAP: determinism is a tier-1 property; golden flow hashes depend on it).
This lint catches the usual ways that promise silently breaks:

  unordered-iter         range-for over a std::unordered_map/set variable.
                         Bucket order is implementation- and size-dependent,
                         so anything emitted, accumulated in floating point,
                         or tie-broken in that order varies between runs.
  pointer-key            associative container keyed by a pointer. Address
                         order changes with ASLR/allocator state.
  nondeterministic-source rand()/srand()/std::random_device/wall-clock reads
                         in solver code. All randomness must flow through
                         util::Rng with an explicit seed.
  raw-thread             std::thread/std::jthread/std::async/std::atomic
                         outside src/exec. Parallelism goes through the exec
                         layer so scheduling cannot reorder results.
  parallel-float-accum   `+=` into a float/double inside an exec::parallel_for
                         body. FP addition is not associative; per-thread
                         partials must be reduced in a fixed order instead.
  simd-float-accum       unordered float reduction inside a PPACD_SIMD_SSE2
                         region: hardware horizontal adds (_mm*_hadd_p*,
                         _mm512_reduce_add_p*) or std::accumulate/std::reduce.
                         SIMD reductions must follow the fixed-lane pattern of
                         util/simd.hpp (per-lane adds, explicit
                         (l0+l1)+(l2+l3) combine) or the SSE2 and scalar paths
                         stop being bit-identical.
  shard-unordered        any std::unordered_map/set in shard-boundary code
                         (files whose name contains "shard"). The sharded
                         placement contract (DESIGN.md §16) requires shard
                         membership, sub-netlist extraction, and the stitch
                         to be reproducible from (model, seed, shard count)
                         alone, so even *non-iterated* hash containers are
                         banned there: bucket layouts invite order-dependent
                         refactors later. Use util::Csr counting builds or
                         epoch-stamped dense scratch instead.

Suppressions (both forms require a trailing justification after a colon):
  // lint:allow(<rule>): <why>          on the offending or preceding line
  // lint:allow-file(<rule>): <why>     in the first 40 lines, whole file

Usage:
  tools/lint_determinism.py [paths...]     lint files/dirs (default: src)
  tools/lint_determinism.py --self-test    run against the fixture corpus

Exit codes (same contract as tools/metric_diff.py):
  0  clean
  1  findings
  2  usage or internal error

Stdlib only; no compiler, no clang dependency.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

RULES = (
    "unordered-iter",
    "pointer-key",
    "nondeterministic-source",
    "raw-thread",
    "parallel-float-accum",
    "simd-float-accum",
    "shard-unordered",
)

# Directories whose job is infrastructure, not solving. Wall-clock and the
# exec layer's own threading live here legitimately.
SOLVER_DIRS = (
    "cluster", "place", "route", "sta", "vpr", "flow", "hier",
    "opt", "ml", "gen", "cts", "features", "geom", "netlist", "liberty",
)

ALLOW_LINE = re.compile(r"//\s*lint:allow\(([a-z-]+)\):\s*\S")
ALLOW_FILE = re.compile(r"//\s*lint:allow-file\(([a-z-]+)\):\s*\S")

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<.*?>\s+(\w+)\s*[;({=]")
RANGE_FOR = re.compile(r"\bfor\s*\(.*?:\s*([A-Za-z_]\w*(?:\.\w+|->\w+)*)\s*\)")
POINTER_KEY = re.compile(
    r"\bstd::(?:unordered_)?(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[\w:]+\s*\*")
NONDET_SOURCE = re.compile(
    r"\bstd::random_device\b|(?<!\w)(?:std::)?s?rand\s*\(|"
    r"\bsystem_clock::now\b|(?<![\w.:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)")
RAW_THREAD = re.compile(r"\bstd::(?:jthread\b|thread\b|async\s*\(|atomic\b)")
PARALLEL_ENTRY = re.compile(r"\bparallel_for\s*\(")
# Preprocessor tracking for PPACD_SIMD_SSE2 regions (simd-float-accum).
PP_SIMD_IF = re.compile(r"^\s*#\s*(?:if\b.*\bPPACD_SIMD_SSE2\b|"
                        r"ifdef\s+PPACD_SIMD_SSE2\b)")
PP_IF = re.compile(r"^\s*#\s*if")
PP_ELSE = re.compile(r"^\s*#\s*(?:else\b|elif\b)")
PP_ENDIF = re.compile(r"^\s*#\s*endif")
SIMD_UNORDERED = re.compile(
    r"\b_mm(?:256|512)?_hadd_p[sd]\b|\b_mm512_reduce_add_p[sd]\b|"
    r"\bstd::(?:accumulate|reduce)\b")
SHARD_UNORDERED = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
FLOAT_DECL = re.compile(r"\b(?:double|float)\s+(\w+)\s*[;={]")
FLOAT_VEC_DECL = re.compile(
    r"\bstd::vector\s*<\s*(?:double|float)\s*>\s*&?\s*(\w+)")
ACCUM = re.compile(r"(?:^|[^+\-*/%&|^<>=!])\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?\+=")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def as_dict(self) -> dict:
        return {"file": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_strings_and_comments(line: str) -> str:
    """Removes string/char literal bodies and // comments (keeps lint: tags)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is comment; allow-tags are parsed from the raw line
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            i += 1
            out.append(quote)
            continue
        out.append(c)
        i += 1
    return "".join(out)


def in_solver_dir(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    return any(p in SOLVER_DIRS for p in parts)


def in_exec_dir(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    return "exec" in parts


def is_shard_file(path: str) -> bool:
    return "shard" in os.path.basename(path)


def lint_file(path: str, text: str) -> list[Finding]:
    raw_lines = text.splitlines()
    lines = [strip_strings_and_comments(l) for l in raw_lines]

    file_allows = set()
    for raw in raw_lines[:40]:
        for m in ALLOW_FILE.finditer(raw):
            file_allows.add(m.group(1))

    def allowed(rule: str, idx: int) -> bool:
        if rule in file_allows:
            return True
        for j in (idx, idx - 1):
            if 0 <= j < len(raw_lines):
                for m in ALLOW_LINE.finditer(raw_lines[j]):
                    if m.group(1) == rule:
                        return True
        return False

    findings: list[Finding] = []

    def add(rule: str, idx: int, message: str) -> None:
        if not allowed(rule, idx):
            findings.append(Finding(path, idx + 1, rule, message))

    # Track names declared as unordered containers (locals and members alike;
    # one file-wide namespace is a deliberate over-approximation).
    unordered_names = set()
    float_names = set()
    for line in lines:
        for m in UNORDERED_DECL.finditer(line):
            unordered_names.add(m.group(1))
        for m in FLOAT_DECL.finditer(line):
            float_names.add(m.group(1))
        for m in FLOAT_VEC_DECL.finditer(line):
            float_names.add(m.group(1))

    # Brace-depth bookkeeping for parallel_for lambda bodies.
    parallel_until_depth: list[int] = []  # stack of depths to pop at
    depth = 0
    # Preprocessor-conditional stack: True for frames that currently select
    # the PPACD_SIMD_SSE2 branch (an #else flips the top frame off).
    pp_simd_stack: list[bool] = []

    for idx, line in enumerate(lines):
        if PP_IF.match(line):
            pp_simd_stack.append(bool(PP_SIMD_IF.match(line)))
        elif PP_ELSE.match(line):
            if pp_simd_stack:
                pp_simd_stack[-1] = False
        elif PP_ENDIF.match(line):
            if pp_simd_stack:
                pp_simd_stack.pop()

        if any(pp_simd_stack) and SIMD_UNORDERED.search(line):
            add("simd-float-accum", idx,
                "unordered float reduction inside a PPACD_SIMD_SSE2 region; "
                "use the fixed-lane pattern of util/simd.hpp (per-lane adds, "
                "explicit (l0+l1)+(l2+l3) combine) so SSE2 and scalar paths "
                "stay bit-identical")

        m = RANGE_FOR.search(line)
        if m:
            base = m.group(1).split(".")[0].split("->")[0]
            if base in unordered_names or m.group(1).split("->")[-1].split(".")[-1] in unordered_names:
                add("unordered-iter", idx,
                    f"range-for over unordered container '{m.group(1)}'; "
                    "iteration order is nondeterministic — sort the keys or "
                    "use a vector/map")

        if is_shard_file(path) and SHARD_UNORDERED.search(line):
            add("shard-unordered", idx,
                "hash container in shard-boundary code; shard membership and "
                "extraction must be reproducible from (model, seed, shard "
                "count) — use util::Csr counting builds or epoch-stamped "
                "dense scratch")

        if POINTER_KEY.search(line):
            add("pointer-key", idx,
                "associative container keyed by a pointer; address order "
                "varies run to run — key by a stable id instead")

        if in_solver_dir(path) and NONDET_SOURCE.search(line):
            add("nondeterministic-source", idx,
                "nondeterministic entropy/clock source in solver code; route "
                "randomness through util::Rng with an explicit seed")

        if not in_exec_dir(path) and RAW_THREAD.search(line):
            add("raw-thread", idx,
                "raw std::thread/std::atomic outside src/exec; use the exec "
                "layer so scheduling cannot reorder results")

        if PARALLEL_ENTRY.search(line):
            parallel_until_depth.append(depth)

        if parallel_until_depth:
            am = ACCUM.search(line)
            if am and am.group(1) in float_names:
                add("parallel-float-accum", idx,
                    f"'{am.group(1)} +=' on a float inside a parallel_for "
                    "body; FP addition is order-dependent — accumulate "
                    "per-thread partials and reduce in index order")

        depth += line.count("{") - line.count("}")
        while parallel_until_depth and depth <= parallel_until_depth[-1] and \
                (")" in line or "}" in line):
            parallel_until_depth.pop()

    return findings


def collect_sources(paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
        else:
            for root, _dirs, files in os.walk(p):
                for f in sorted(files):
                    if f.endswith((".cpp", ".hpp", ".cc", ".h")):
                        out.append(os.path.join(root, f))
    return sorted(set(out))


def run_lint(paths: list[str], json_path: str | None) -> int:
    files = collect_sources(paths)
    if not files:
        print(f"lint_determinism: no C++ sources under {paths}", file=sys.stderr)
        return 2
    findings: list[Finding] = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                findings.extend(lint_file(path, fh.read()))
        except OSError as e:
            print(f"lint_determinism: {e}", file=sys.stderr)
            return 2
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({"lint": "determinism",
                       "files_scanned": len(files),
                       "findings": [f.as_dict() for f in findings]}, fh,
                      indent=2)
            fh.write("\n")
    for f in findings:
        print(f)
    print(f"lint_determinism: {len(findings)} finding(s) in "
          f"{len(files)} file(s)")
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# Self-test against the fixture corpus
# ---------------------------------------------------------------------------

EXPECT = re.compile(r"//\s*LINT-EXPECT:\s*([a-z-]+)")


def self_test() -> int:
    fixture_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "lint_fixtures", "determinism")
    files = collect_sources([fixture_dir])
    if not files:
        print(f"lint_determinism: no fixtures in {fixture_dir}", file=sys.stderr)
        return 2
    failures = 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        expected = set()
        for idx, raw in enumerate(text.splitlines()):
            for m in EXPECT.finditer(raw):
                expected.add((idx + 1, m.group(1)))
        got = {(f.line, f.rule) for f in lint_file(path, text)}
        for miss in sorted(expected - got):
            print(f"SELF-TEST FAIL {path}:{miss[0]}: expected {miss[1]}, "
                  "not reported")
            failures += 1
        for extra in sorted(got - expected):
            print(f"SELF-TEST FAIL {path}:{extra[0]}: unexpected {extra[1]}")
            failures += 1
    print(f"lint_determinism self-test: {len(files)} fixture(s), "
          f"{failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture corpus instead of linting")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write findings as JSON")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_lint(args.paths or ["src"], args.json)


if __name__ == "__main__":
    sys.exit(main())
