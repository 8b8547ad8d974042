#!/usr/bin/env python3
"""End-to-end benchmark of the placement flow as a user runs it: flow_cli.

Run from the repository root:

  python3 flowbench/run.py --workload clustered --seed 1 --seconds 36 --trace 0

It builds flow_cli with the repository's own CMake build (in .bench_build/),
writes a fixed set of seeded gate-level netlists (netgen.py), runs one
flow_cli process per netlist in rounds until --seconds have passed, checks
every result, and prints one JSON object as the last line of standard output.
Workloads, metrics and checks are described in README.md next to this file.

--trace 0 reports the end-to-end metrics. --trace 1 replays the same netlists
with the program's run report switched on (--report), reports per-layer
metrics taken from it, and writes a Chrome trace of the run to
.bench_build/flowbench/trace-<workload>-<seed>.json.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import netgen

BUILD_DIR = Path(".bench_build") / "cmake"
WORK_DIR = Path(".bench_build") / "flowbench"
DESIGN = WORK_DIR / "design.v"
QOR = WORK_DIR / "qor.json"
REPORT = WORK_DIR / "report.json"
OUTPUT = WORK_DIR / "output.txt"
INVOKE_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    family: str        # workloads of one family run the same netlists per seed
    spec: netgen.Spec
    netlists: int      # netlists per run, each run once per round
    threads: int
    flow_args: tuple
    clustered: bool    # clusters the netlist before placement


MID = netgen.Spec(cells=6000, depth=4, branching=3)
LARGE = netgen.Spec(cells=16000, depth=5, branching=3)
WORKLOADS = {
    "clustered": Workload("mid", MID, 8, 1, ("--flow", "ours"), True),
    "flat": Workload("mid", MID, 8, 1, ("--flow", "default"), False),
    "sharded": Workload("large", LARGE, 6, 4,
                        ("--flow", "ours", "--sharded", "--shards", "8"), True),
}
# Every workload stops after placement. The full-design global router can
# hang at any lane count on some netlists (a known BucketQueue::grow bug, see
# ROADMAP.md), so a routed workload would not finish on every seed.
COMMON_ARGS = ("--clock", "1500", "--place-only")

# Environment variables that would change what flow_cli does (fault plans,
# flight recorder, lane count) are not passed on, and temporary files (the
# compiler's among them) stay inside the checkout.
TMP_DIR = Path(".bench_build") / "tmp"
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PPACD_")}
CHILD_ENV["TMPDIR"] = str(TMP_DIR.resolve())


@dataclass
class Outcome:
    start_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    output: str
    qor: dict
    phases: list   # top-level flow spans of the run report (traced runs)
    layers: dict   # per-layer numbers (traced runs)


def build():
    """Configures and builds flow_cli; returns the path of the binary."""
    if not Path("CMakeLists.txt").is_file():
        sys.exit("flowbench: no CMakeLists.txt in the working directory; "
                 "run from the repository root")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    log = WORK_DIR / "build.log"
    with open(log, "w") as out:
        for cmd in (["cmake", "-S", ".", "-B", str(BUILD_DIR)],
                    ["cmake", "--build", str(BUILD_DIR), "--target", "flow_cli",
                     "--parallel", "4"]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=CHILD_ENV).returncode:
                sys.exit("flowbench: %s failed; see %s" % (" ".join(cmd), log))
    binaries = [p for p in sorted(BUILD_DIR.rglob("flow_cli"))
                if p.is_file() and os.access(p, os.X_OK)]
    if not binaries:
        sys.exit("flowbench: the build produced no flow_cli binary")
    return binaries[0].resolve()


def read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def invoke(flow_cli, args, epoch):
    """Runs flow_cli once; wall time covers process start to exit."""
    for stale in (QOR, REPORT):
        stale.unlink(missing_ok=True)
    with open(OUTPUT, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([str(flow_cli), *args], stdout=out,
                                stderr=subprocess.STDOUT, env=CHILD_ENV)
        timer = threading.Timer(INVOKE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    qor = read_json(QOR)
    outcome = Outcome(start_s=start - epoch, wall_s=wall,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0, status=proc.returncode,
                      output=OUTPUT.read_text(errors="replace"),
                      qor=qor.get("metrics") if isinstance(qor, dict) else None,
                      phases=[], layers=None)
    report = read_json(REPORT)
    if isinstance(report, dict):
        outcome.phases = [s for s in report.get("spans", [])
                          if s.get("parent") == -1]
        outcome.layers = layer_values(outcome, report)
    return outcome


def problems_of(workload, outcome):
    """What is wrong with one flow_cli result; empty when it is correct."""
    if outcome.status != 0:
        return ["exit status %d: %s" % (outcome.status, outcome.output[-300:])]
    found = [line for line in outcome.output.splitlines()
             if line.startswith("degraded:")]
    qor = outcome.qor
    if not isinstance(qor, dict):
        return found + ["no QoR ledger"]
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in qor.values()):
        found.append("non-finite QoR %s" % qor)
    if not qor.get("hpwl_um", 0) > 0:
        found.append("hpwl_um is %r" % qor.get("hpwl_um"))
    if (qor.get("cluster_count", 0) > 0) != workload.clustered:
        found.append("cluster_count is %r" % qor.get("cluster_count"))
    return found


def layer_values(outcome, report):
    """Per-layer numbers of one traced invocation, from its run report."""
    phase_s = sum(s["dur_us"] for s in outcome.phases) / 1e6
    place_s = sum(s["dur_us"] for s in outcome.phases
                  if "place" in s["name"]) / 1e6
    counters = report.get("metrics", {}).get("counters", {})
    return {
        "load_s": outcome.wall_s - phase_s,
        "place_s": place_s,
        "gp_solve_s": sum(s["dur_us"] for s in report.get("spans", [])
                          if s["name"] == "place.gp.iter") / 1e6,
        "cpu_s": outcome.cpu_s,
        "gp_iterations": counters.get("place.gp.iterations", 0),
        "exec_tasks": counters.get("exec.tasks.executed", 0),
        "route_nets": counters.get("route.nets.routed", 0),
        "route_reroutes": counters.get("route.maze.reroutes", 0),
        "vpr_shapes": counters.get("vpr.shapes.evaluated", 0),
    }


LAYER_UNITS = {
    "load_s": "s", "place_s": "s", "gp_solve_s": "s",
    "cpu_s": "s", "gp_iterations": "count", "exec_tasks": "count",
    "route_nets": "count", "route_reroutes": "count", "vpr_shapes": "count",
}


def trace_events(spans):
    """Chrome trace events: the benchmark's spans, with each traced
    invocation's flow phases placed inside it so that they end together."""
    events = []
    for name, start_s, dur_s, phases in spans:
        events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                       "ts": start_s * 1e6, "dur": dur_s * 1e6})
        if not phases:
            continue
        shift = (start_s + dur_s) * 1e6 - max(s["start_us"] + s["dur_us"]
                                               for s in phases)
        events += [{"name": s["name"], "ph": "X", "pid": 1, "tid": 2,
                    "ts": s["start_us"] + shift, "dur": s["dur_us"]}
                   for s in phases]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def run(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    flow_cli = build()
    common = ["--verilog", str(DESIGN), *COMMON_ARGS, *workload.flow_args,
              "--qor=%s" % QOR]
    epoch = time.perf_counter()
    count = workload.netlists
    setups = [[] for _ in range(count)]  # per netlist: generation times
    walls = [[] for _ in range(count)]   # per netlist: correct run times
    digests = [None] * count
    qors = [None] * count
    samples, spans, problems = [], [], []
    attempted = failed = 0

    def prepare(index):
        start = time.perf_counter()
        text = netgen.generate(
            workload.spec, "%s:%d:%d" % (workload.family, seed, index))
        DESIGN.write_text(text)
        setups[index].append(time.perf_counter() - start)
        spans.append(("generate %d" % index, start - epoch,
                      setups[index][-1], []))
        digest = hashlib.sha256(text.encode()).digest()
        if digests[index] is None:
            digests[index] = digest
        elif digest != digests[index]:
            problems.append("netlist %d: generated differently" % index)

    def attempt(args, label):
        nonlocal attempted, failed
        outcome = invoke(flow_cli, common + args, epoch)
        attempted += 1
        found = problems_of(workload, outcome)
        if "--report" in args and outcome.layers is None:
            found.append("no run report")
        if found:
            failed += 1
            problems.extend("%s: %s" % (label, p) for p in found)
        spans.append((label, outcome.start_s, outcome.wall_s, outcome.phases))
        return outcome, not found

    # Replay of the first netlist under every invariant checker (netlist,
    # clustering, legal placement) on the other lane count. The flows are
    # bit-identical at any lane count, so its QoR must equal the timed runs'.
    prepare(0)
    replay_threads = 1 if workload.threads > 1 else 4
    replay, _ = attempt(["--threads", str(replay_threads), "--check", "full"],
                        "replay")

    # Each round writes and runs every netlist once. Rounds repeat until the
    # next one would end past the deadline, so each netlist's repeats spread
    # over the whole run and its best time misses most of the slowdowns that
    # other tenants of a shared host cause.
    extra = ["--report", str(REPORT)] if trace else []
    deadline = time.perf_counter() + seconds
    rounds, round_s = 0, 0.0
    while rounds < 2 or time.perf_counter() + round_s <= deadline:
        start = time.perf_counter()
        for index in range(count):
            prepare(index)
            outcome, ok = attempt(["--threads", str(workload.threads), *extra],
                                  "netlist %d" % index)
            if not ok:
                continue
            if qors[index] is None:
                qors[index] = outcome.qor
            elif outcome.qor != qors[index]:
                problems.append("netlist %d: QoR %s differs from %s"
                                % (index, outcome.qor, qors[index]))
            samples.append(outcome)
            walls[index].append(outcome.wall_s)
        round_s = time.perf_counter() - start
        rounds += 1
    if replay.qor != qors[0]:
        problems.append("replay QoR %s differs from %s" % (replay.qor, qors[0]))

    placed = [i for i in range(count) if walls[i]]
    if not placed:
        sys.exit("flowbench: no flow_cli run succeeded: %s" % problems[:3])
    for problem in problems:
        print("flowbench: " + problem, file=sys.stderr)
    print("flowbench: %d netlists x %d rounds, best run times %s s"
          % (count, rounds, " ".join("%.3f" % min(walls[i]) for i in placed)),
          file=sys.stderr)

    if trace:
        metrics = {k: {"value": statistics.median(o.layers[k] for o in samples),
                       "unit": unit} for k, unit in LAYER_UNITS.items()}
        trace_path = WORK_DIR / ("trace-%s-%d.json" % (name, seed))
        trace_path.write_text(json.dumps(trace_events(spans)))
        print("flowbench: wrote %s" % trace_path, file=sys.stderr)
    else:
        metrics = {
            "flow_s": {"value": statistics.median(min(walls[i]) for i in placed),
                       "unit": "s"},
            "hpwl_um": {"value": statistics.fmean(qors[i]["hpwl_um"]
                                                  for i in placed),
                        "unit": "um"},
            "peak_rss_mb": {"value": statistics.median(o.rss_mb for o in samples),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(min(s) for s in setups),
                        "unit": "s"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run(args.workload, args.seed, args.seconds, args.trace == 1)


if __name__ == "__main__":
    main()
