#!/usr/bin/env python3
"""Compare two perf reports or two QoR ledgers and flag regressions.

Usage:
    tools/metric_diff.py BASELINE.json CURRENT.json [--threshold PCT]
                         [--fail-on-regression]
    tools/metric_diff.py --self-test

The inputs' `schema` field picks the rules:
  * ppacd-bench-perf-v1: `bench_microkernels --json` (or bench_table2 /
    bench_sharded) reports. Kernels are matched by name; ns_per_op gates,
    smaller is better, default threshold 10%; allocs/bytes per op advise.
  * ppacd-qor-v1: `flow_cli --qor` ledgers, or a {"designs": {name: ledger}}
    collection of them. Designs are matched by name; HPWL, routed
    wirelength, power, overflow edges and clock skew gate smaller-is-better,
    WNS and TNS larger-is-better, default threshold 5%; the "convergence"
    section advises.

A gated metric regresses when it moves in its worse direction by more than
the threshold (percent of the baseline magnitude; any worsening of an
exactly-zero baseline counts). Kernels, designs and stats present in only
one input are reported as new / gone, never fatal.

Exit status (the lint scripts follow the same contract):
    0  compared fine (or regressions found without --fail-on-regression)
    1  --fail-on-regression and at least one gated metric regressed
    2  usage error (bad flags/arguments)
    3  an input file is missing or unreadable
    4  an input is not a report of a known schema (bad JSON, unknown or
       missing schema, malformed body), or the inputs' schemas differ

`--self-test` runs inline fixtures of both schemas (ctest
metric_diff_selftest). Stdlib only.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_SCHEMA = 4

PERF = "ppacd-bench-perf-v1"
QOR = "ppacd-qor-v1"

# Per schema: what an entry is called, the default threshold in percent, and
# the improvement direction of each gated stat (-1 = smaller is better,
# +1 = larger is better). Stats not listed are advisory.
RULES = {
    PERF: ("kernel", 10.0, {"ns_per_op": -1}),
    QOR: ("design", 5.0, {
        "hpwl_um": -1, "rwl_um": -1, "power_w": -1,
        "route_overflow_edges": -1, "clock_skew_ps": -1,
        "wns_ps": +1, "tns_ns": +1,
    }),
}


class SchemaError(Exception):
    """The file parsed as JSON but is not a report of a known schema."""


def numeric_stats(where, values, prefix=""):
    """{prefix + key: float} for the numeric values; nulls are skipped."""
    if not isinstance(values, dict):
        raise SchemaError(f"{where} must be an object, "
                          f"got {type(values).__name__}")
    stats = {}
    for key, value in values.items():
        if value is None:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{where}.{key} is not numeric ({value!r})")
        stats[prefix + key] = float(value)
    return stats


def ledger_stats(where, ledger):
    if not isinstance(ledger, dict) or ledger.get("schema") != QOR:
        raise SchemaError(f"{where}: not a {QOR} ledger")
    stats = numeric_stats(f"{where}: metrics", ledger.get("metrics", {}))
    # Prefixed, so no convergence stat can take a gated metric's name.
    stats.update(numeric_stats(f"{where}: convergence",
                               ledger.get("convergence", {}), "convergence."))
    return stats


def load(path):
    """Returns (schema, {entry name: {stat: value}})."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level, "
                          f"got {type(doc).__name__}")
    if "designs" in doc:
        designs = doc["designs"]
        if not isinstance(designs, dict):
            raise SchemaError(f"{path}: 'designs' must be an object, "
                              f"got {type(designs).__name__}")
        return QOR, {name: ledger_stats(f"{path}[{name}]", ledger)
                     for name, ledger in designs.items()}
    schema = doc.get("schema")
    if schema == QOR:
        name = doc.get("design") or "design"
        key = f"{name}/{doc['flow']}" if doc.get("flow") else str(name)
        return QOR, {key: ledger_stats(path, doc)}
    if schema != PERF:
        raise SchemaError(f"{path}: unexpected schema {schema!r} "
                          f"(want {PERF!r} or {QOR!r})")
    kernels = doc.get("kernels", [])
    if not isinstance(kernels, list):
        raise SchemaError(f"{path}: 'kernels' must be an array, "
                          f"got {type(kernels).__name__}")
    entries = {}
    for kernel in kernels:
        if not isinstance(kernel, dict):
            raise SchemaError(f"{path}: kernel entries must be objects, "
                              f"got {type(kernel).__name__}")
        if kernel.get("name"):
            entries[kernel["name"]] = numeric_stats(
                f"{path}: {kernel['name']}",
                {k: kernel.get(k) for k in
                 ("ns_per_op", "allocs_per_op", "bytes_per_op")})
    return PERF, entries


def diff_entry(name, base, cur, directions, threshold, regressions):
    print(f"== {name}")
    for key in sorted(set(base) | set(cur)):
        if key not in cur:
            print(f"  {key}: only in baseline")
            continue
        if key not in base:
            print(f"  {key}: only in current ({cur[key]:.6g})")
            continue
        b, c = base[key], cur[key]
        if b != 0.0:
            pct = (c - b) / abs(b) * 100.0
            pct_text = f"{pct:+.2f}%"
        else:
            pct = float("inf") if c != b else 0.0
            pct_text = "n/a" if c != b else "+0.00%"
        direction = directions.get(key)
        mark = "" if direction is not None else "  (advisory)"
        if direction is not None and (c - b) * direction < 0.0 and \
                abs(pct) > threshold:
            regressions.append((name, key, b, c, pct_text))
            mark = "  << REGRESSED"
        print(f"  {key}: {b:.6g} -> {c:.6g}  ({pct_text}){mark}")


def compare(baseline_path, current_path, threshold, fail_on_regression):
    try:
        base_schema, baseline = load(baseline_path)
        cur_schema, current = load(current_path)
    except OSError as err:
        print(f"metric_diff: cannot read input: {err}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except SchemaError as err:
        print(f"metric_diff: {err}", file=sys.stderr)
        return EXIT_BAD_SCHEMA
    if base_schema != cur_schema:
        print(f"metric_diff: cannot compare a {base_schema} baseline with a "
              f"{cur_schema} input", file=sys.stderr)
        return EXIT_BAD_SCHEMA
    label, default_threshold, directions = RULES[base_schema]
    if threshold is None:
        threshold = default_threshold

    common = [name for name in baseline if name in current]
    regressions = []
    for name in common:
        diff_entry(name, baseline[name], current[name], directions, threshold,
                   regressions)
    for name in sorted(set(baseline) - set(current)):
        print(f"{name}: gone (only in baseline)")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name}: new (only in current)")

    if not regressions:
        print(f"\nno regressions above {threshold:g}% "
              f"({len(common)} {label}(s) compared)")
        return EXIT_OK
    print(f"\n{len(regressions)} metric(s) regressed more than "
          f"{threshold:g}%:")
    for name, key, b, c, pct_text in regressions:
        print(f"  {name} {key}: {b:.6g} -> {c:.6g} ({pct_text})")
    return EXIT_REGRESSION if fail_on_regression else EXIT_OK


# ---------------------------------------------------------------------------
# Self-test (fixture corpus, same idea as the lint_*.py --self-test modes)
# ---------------------------------------------------------------------------

def _perf(*kernels):
    return {"schema": PERF, "kernels": [{"name": name, **stats}
                                        for name, stats in kernels]}


def _ns(ns_per_op, **stats):
    return _perf(("BM_A", {"ns_per_op": ns_per_op, **stats}))


def _qor(convergence=None, **metrics):
    return {"schema": QOR, "design": "aes", "flow": "ours",
            "metrics": metrics, "convergence": convergence or {}}


def self_test():
    """Runs compare() against inline fixtures; returns 0 iff all cases pass."""
    led = _qor(hpwl_um=100.0, wns_ps=-50.0, cluster_count=20,
               convergence={"place_iterations": 10})
    cases = [  # (name, baseline, current, threshold, fail_on_regression,
               #  expected exit, substrings that must appear in stdout)
        ("perf identical", _ns(100.0), _ns(100.0), None, True, EXIT_OK,
         ["no regressions above 10%"]),
        ("perf ns/op gates", _ns(100.0), _ns(150.0), None, True,
         EXIT_REGRESSION, ["BM_A ns_per_op: 100 -> 150 (+50.00%)"]),
        ("perf advisory without the flag", _ns(100.0), _ns(150.0), None,
         False, EXIT_OK, ["REGRESSED"]),
        ("perf allocs/op never gate", _ns(100.0, allocs_per_op=3),
         _ns(100.0, allocs_per_op=300), None, True, EXIT_OK,
         ["allocs_per_op: 3 -> 300  (+9900.00%)  (advisory)"]),
        ("perf stat on one side", _ns(100.0), _ns(100.0, allocs_per_op=7),
         None, True, EXIT_OK, ["allocs_per_op: only in current"]),
        ("perf kernels on one side", _perf(("BM_Old", {"ns_per_op": 1})),
         _perf(("BM_New", {"ns_per_op": 2})), None, True, EXIT_OK,
         ["BM_Old: gone (only in baseline)", "BM_New: new (only in current)",
          "0 kernel(s) compared"]),
        ("qor identical", led, led, None, True, EXIT_OK,
         ["no regressions above 5% (1 design(s) compared)"]),
        ("qor hpwl gates", led, _qor(hpwl_um=110.0, wns_ps=-50.0), None, True,
         EXIT_REGRESSION, ["aes/ours hpwl_um: 100 -> 110"]),
        ("qor threshold override", led, _qor(hpwl_um=103.0, wns_ps=-50.0),
         2.0, True, EXIT_REGRESSION, ["regressed more than 2%"]),
        ("qor larger wns is better", led, _qor(hpwl_um=100.0, wns_ps=0.0),
         None, True, EXIT_OK, ["wns_ps: -50 -> 0"]),
        ("qor more negative wns gates", led, _qor(hpwl_um=100.0, wns_ps=-60.0),
         None, True, EXIT_REGRESSION, ["wns_ps: -50 -> -60  (-20.00%)  <<"]),
        ("qor convergence is advisory", led,
         _qor(convergence={"place_iterations": 99}, hpwl_um=100.0,
              wns_ps=-50.0),
         None, True, EXIT_OK, ["convergence.place_iterations: 10 -> 99"]),
        ("qor collection matched by name",
         {"designs": {"aes/ours": led, "jpeg/default": led}}, led, None, True,
         EXIT_OK, ["jpeg/default: gone (only in baseline)"]),
        ("mixed schemas", led, _ns(1.0), None, False, EXIT_BAD_SCHEMA, []),
        ("unknown schema", {"schema": "nope"}, led, None, False,
         EXIT_BAD_SCHEMA, []),
        ("non-numeric metric", _qor(hpwl_um="big"), led, None, False,
         EXIT_BAD_SCHEMA, []),
        ("missing file", None, led, None, False, EXIT_MISSING_FILE, []),
    ]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="metric_diff_selftest.") as tmp:
        for name, base, cur, threshold, fail, want_exit, want_out in cases:
            paths = [os.path.join(tmp, "base.json"),
                     os.path.join(tmp, "cur.json")]
            for path, doc in zip(paths, (base, cur)):
                if os.path.exists(path):
                    os.remove(path)
                if doc is not None:
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    got_exit = compare(*paths, threshold, fail)
            except Exception as err:  # the KeyError class of bug
                got_exit = f"{type(err).__name__}: {err}"
            missing_out = [s for s in want_out if s not in out.getvalue()]
            if got_exit != want_exit or missing_out:
                print(f"FAIL [{name}]: exit {got_exit} (want {want_exit}), "
                      f"missing {missing_out!r}; got:\n{out.getvalue()}")
                failures += 1
    print(f"metric_diff self-test: {len(cases)} case(s), "
          f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_REGRESSION


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="baseline report")
    parser.add_argument("current", nargs="?", help="current report")
    parser.add_argument("--threshold", type=float, default=None,
                        help="regression threshold in percent of the baseline "
                             "(default: 10 for perf reports, 5 for ledgers)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 if any gated metric regresses past the "
                             "threshold (default: advisory only)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the inline fixture corpus instead of "
                             "comparing two inputs")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.print_usage(sys.stderr)
        print("metric_diff: baseline and current inputs are required "
              "unless --self-test is given", file=sys.stderr)
        return EXIT_USAGE
    return compare(args.baseline, args.current, args.threshold,
                   args.fail_on_regression)


if __name__ == "__main__":
    sys.exit(main())
