#!/usr/bin/env python3
"""Contract lint: enforces the repo's error-handling conventions.

The flow's failure channel is `fault::Expected<T, FlowError>` returned by
`try_*` entry points, and `check::CheckResult` returned by validators. Both
carry stable kebab-case codes that tests and the fault-injection campaign key
on. This lint enforces the conventions the type system cannot:

  dropped-expected   a `try_*(...)` call used as a bare statement (including
                     `(void)` casts). Every caller must bind the Expected and
                     branch on it; [[nodiscard]] catches most of these at
                     compile time, this catches the cast-away-and-ignore case.
  naked-value        `.value()` on an object the lint can see is an
                     Expected/optional (declared as such, or bound from a
                     `try_*` call) with no visible check of the same object
                     earlier in the function (has_value(), ok(), `if (!x`,
                     PPACD_CHECK(x...)). Objects of other types — e.g. the
                     StrongId::value() payload accessor — are not policed.
                     Unchecked value() on an error is an assert at best.
  code-style         an emitted error/violation code that is not kebab-case
                     (`[a-z0-9]+(-[a-z0-9]+)*`). Codes are a public, grep-able
                     contract; one naming scheme.
  registry-order     the fault-site registry (`kSites` in src/fault/fault.cpp)
                     must be sorted and collision-free: parse_plan validation,
                     to_spec canonicalisation, and the fault campaign all
                     iterate it in order.

Suppressions (a trailing justification after the colon is required):
  // lint:allow(<rule>): <why>          on the offending or preceding line
  // lint:allow-file(<rule>): <why>     in the first 40 lines, whole file

Usage:
  tools/lint_contracts.py [paths...]      lint files/dirs (default: src)
  tools/lint_contracts.py --self-test     run against the fixture corpus

Exit codes (same contract as tools/metric_diff.py):
  0 clean, 1 findings, 2 usage or internal error.

Stdlib only; no compiler, no clang dependency.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

ALLOW_LINE = re.compile(r"//\s*lint:allow\(([a-z-]+)\):\s*\S")
ALLOW_FILE = re.compile(r"//\s*lint:allow-file\(([a-z-]+)\):\s*\S")

KEBAB = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")

# A statement that is nothing but a try_* call (optionally (void)-cast).
DROPPED_TRY = re.compile(
    r"^\s*(?:\(void\)\s*)?(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*try_\w+\s*\(")
TRY_CONSUMED = re.compile(r"=|\breturn\b|\bco_return\b|\bif\b|\bwhile\b|\bfor\b")

VALUE_CALL = re.compile(r"\b([A-Za-z_]\w*)(?:\.|->)value\s*\(\s*\)")
FUNC_HEAD = re.compile(r"^[A-Za-z_][\w:<>,*&\s]*\([^;]*$|^[A-Za-z_].*\)\s*(?:const)?\s*{")

# Code-emission sites whose first string literal is a stable code.
CODE_EMIT = re.compile(
    r"""(?:\berr\s*\(|\.code\s*=\s*|\badd\s*\(|error_code\s*=\s*)\s*"([^"]+)"
    """, re.VERBOSE)

KSITES_BLOCK = re.compile(
    r"kSites\s*=\s*\{(.*?)\};", re.DOTALL)
STRING_LIT = re.compile(r'"([^"]*)"')


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


def strip_comment(line: str) -> str:
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def lint_file(path: str, text: str) -> list[Finding]:
    raw_lines = text.splitlines()
    code_lines = [strip_comment(l) for l in raw_lines]

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

    # Function-start markers for the naked-value backward scan: a line at
    # column zero opening a brace approximates a function/namespace boundary.
    func_starts = [0]
    for idx, line in enumerate(code_lines):
        if line and not line[0].isspace() and line.rstrip().endswith("{"):
            func_starts.append(idx)

    def scope_start(idx: int) -> int:
        lo = 0
        for s in func_starts:
            if s <= idx:
                lo = s
            else:
                break
        return lo

    for idx, line in enumerate(code_lines):
        # dropped-expected: join continuation lines until the statement ends.
        # Only a statement *start* counts: the previous code line must have
        # closed with ; { or } — otherwise this is the continuation of a
        # declaration or expression (e.g. a return type on its own line).
        prev = ""
        for k in range(idx - 1, -1, -1):
            if code_lines[k].strip():
                prev = code_lines[k].rstrip()
                break
        at_statement_start = not prev or prev.endswith((";", "{", "}"))
        if at_statement_start and DROPPED_TRY.match(line):
            stmt = line
            j = idx
            while ";" not in stmt and j + 1 < len(code_lines) and j - idx < 8:
                j += 1
                stmt += " " + code_lines[j].strip()
            head = stmt.split("try_", 1)[0]
            if not TRY_CONSUMED.search(head):
                add("dropped-expected", idx,
                    "try_* result discarded; bind the Expected and branch on "
                    "it (or propagate the error)")

        for m in VALUE_CALL.finditer(line):
            var = m.group(1)
            # Declaration-site .value() (auto x = try_foo().value()) has no
            # variable to have checked; `var` is then the callee name.
            start = scope_start(idx)
            window = "\n".join(code_lines[start:idx + 1])
            # Only police objects that are visibly Expected/optional-like;
            # value() on anything else (StrongId, Counter, ...) is fine.
            expected_like = (
                re.search(rf"(?:Expected|optional)\s*<[^;]*?\b{re.escape(var)}\b",
                          window)
                or re.search(rf"\b{re.escape(var)}\s*=[^;]*\btry_\w+\s*\(",
                             window)
            )
            if not expected_like:
                continue
            checked = (
                re.search(rf"\b{re.escape(var)}\s*(?:\.|->)\s*has_value\s*\(", window)
                or re.search(rf"\b{re.escape(var)}\s*(?:\.|->)\s*ok\s*\(", window)
                or re.search(rf"(?:if|while)\s*\(\s*!?\s*{re.escape(var)}\b", window)
                or re.search(rf"PPACD_D?CHECK\s*\(\s*!?\s*{re.escape(var)}\b", window)
                or re.search(rf"\bASSERT_TRUE\s*\(\s*{re.escape(var)}\b", window)
                or re.search(rf"\breturn\s+!?\s*{re.escape(var)}\s*;", window)
            )
            if not checked:
                add("naked-value", idx,
                    f"'.value()' on '{var}' with no visible has_value()/ok()/"
                    "if-check earlier in this function")

        for m in CODE_EMIT.finditer(line):
            code = m.group(1)
            # Only police strings that plausibly are codes: single token, no
            # spaces. Messages (which contain spaces) pass through.
            if " " in code or not code:
                continue
            if not KEBAB.match(code):
                add("code-style", idx,
                    f"error code \"{code}\" is not kebab-case "
                    "([a-z0-9]+(-[a-z0-9]+)*)")

    # registry-order: only meaningful in the file that defines kSites.
    m = KSITES_BLOCK.search(text)
    if m:
        sites = STRING_LIT.findall(m.group(1))
        line_no = text[:m.start()].count("\n")
        if sites != sorted(sites):
            add("registry-order", line_no,
                f"fault site registry is not sorted: {sites}")
        if len(sites) != len(set(sites)):
            dupes = sorted({s for s in sites if sites.count(s) > 1})
            add("registry-order", line_no,
                f"fault site registry has duplicate entries: {dupes}")
        for s in sites:
            if not re.match(r"^[a-z0-9_.]+$", s):
                add("registry-order", line_no,
                    f"fault site \"{s}\" is not lower-case dotted form")

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
        print(f"lint_contracts: no C++ sources under {paths}", file=sys.stderr)
        return 2
    findings: list[Finding] = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                findings.extend(lint_file(path, fh.read()))
        except OSError as e:
            print(f"lint_contracts: {e}", file=sys.stderr)
            return 2
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({"lint": "contracts",
                       "files_scanned": len(files),
                       "findings": [f.as_dict() for f in findings]}, fh,
                      indent=2)
            fh.write("\n")
    for f in findings:
        print(f)
    print(f"lint_contracts: {len(findings)} finding(s) in {len(files)} file(s)")
    return 1 if findings else 0


EXPECT = re.compile(r"//\s*LINT-EXPECT:\s*([a-z-]+)")


def self_test() -> int:
    fixture_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "lint_fixtures", "contracts")
    files = collect_sources([fixture_dir])
    if not files:
        print(f"lint_contracts: no fixtures in {fixture_dir}", file=sys.stderr)
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
    print(f"lint_contracts self-test: {len(files)} fixture(s), "
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
