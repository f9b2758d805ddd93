"""Benchmark for cachelab: each workload through the real CLI, checked.

Run from the root of a checkout:

    python3 bench/bench.py --workload compare-zipf --seed 1 --seconds 30 --trace 0
    python3 bench/bench.py --self-check

With --trace 0 the benchmark runs rounds of the workload's CLI commands,
one at a time, each in a fresh interpreter, until --seconds have passed.
It checks every output against bench/reference.py and the bounds the
policies must meet, times the set-up of a fresh interpreter after each
round, and scales every time to a fixed host speed, measured by a
reference loop between commands. With --trace 1 it calls cachelab's
public functions in-process instead and reports per-layer metrics (see
tracing.py). Either way the last line of stdout is one JSON object:
correct, attempted, failed and metrics.
README.md lists the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
from checks import (
    COMPARE_RUNS,
    LOCKSTEP_POLICIES,
    check_compare,
    check_report,
    check_scan_mix,
    check_simulate,
    check_verify,
    expect,
    gather_facts,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
COMMAND_TIMEOUT_S = 60
MIN_SETUP_PROBES = 5
# The reference loop's median time on the host README.md's figures come
# from; times are reported as if the host always ran at that speed.
REFERENCE_S = 0.063

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("requests_per_s", "requests/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# Set-up as a user pays it: import cachelab, then get the trace into memory.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import cachelab
source = sys.argv[1]
if source.startswith("file:"):
    with open(source[len("file:"):], "rb") as handle:
        trace = cachelab.parse_trace(handle.read())
else:
    trace = cachelab.parse_workload(source).generate()
print(len(trace), repr(time.perf_counter() - start))
"""


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    cache_size: int
    kind: str
    params: tuple  # (name, value) pairs of the generator spec, without seed
    from_file: bool  # the CLI reads the trace back from a gen-trace file

    def spec(self, seed):
        params = dict(self.params, seed=seed)
        return "%s:%s" % (self.kind, ",".join("%s=%s" % kv for kv in sorted(params.items())))

    @property
    def requests(self):
        return dict(self.params)["length"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare-zipf", 64, "zipf",
                 (("universe", 1000), ("alpha", 0.9), ("length", 20000)), False),
        Workload("verify-zipf", 64, "zipf",
                 (("universe", 1000), ("alpha", 0.9), ("length", 4000)), False),
        Workload("scan-file", 8, "scan_mix",
                 (("hot", 24), ("scan", 32), ("length", 7500)), True),
    )
}


@dataclass(frozen=True)
class Command:
    args: tuple
    policy_runs: int  # passes of a policy over the trace (compare makes 6)
    check: object  # (output bytes, Facts) -> list of problems
    writes: str | None = None  # file the command writes its output to


def commands(workload, seed, trace_path):
    n = str(workload.cache_size)
    spec = workload.spec(seed)
    if workload.name == "compare-zipf":
        return [Command(("compare", "--cache-size", n, "--format", "json", "--workload", spec),
                        len(COMPARE_RUNS), check_compare)]
    if workload.name == "verify-zipf":
        return [Command(("verify", "--policy", p, "--cache-size", n, "--workload", spec),
                        1, check_verify(p))
                for p in LOCKSTEP_POLICIES]
    return [Command(("gen-trace", "--workload", spec, "--out", trace_path), 0,
                    check_scan_mix(workload), writes=trace_path)] + [
        Command(("simulate", "--policy", p, "--cache-size", n,
                 "--checks", "invariants,potential,lemmas", "--trace", trace_path,
                 "--format", "json"), 1, check_simulate(p))
        for p in ("arc", "car", "clock")
    ]


# ---------------------------------------------------------------------------
# running the CLI


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("CACHELAB_FORMAT", None)
    return env


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv, run_dir):
    """Run argv to completion; wall, CPU and peak RSS are the child's own."""
    out_path, err_path = run_dir / "stdout", run_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                finished, _, _ = select.select([pidfd], [], [], COMMAND_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not finished:
                proc.kill()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cachelab_argv(args):
    return [sys.executable, "-m", "cachelab", *args]


# ---------------------------------------------------------------------------
# the untraced run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_untraced(workload, seed, seconds, run_dir):
    trace_path = str((run_dir / "trace.txt").relative_to(ROOT))
    source = "file:" + trace_path if workload.from_file else workload.spec(seed)
    cmds = commands(workload, seed, trace_path)
    first_outputs = None
    problems = {}
    reported = set()
    rounds = []  # (wall, cpu, rss) per round
    setups = []
    references = []
    attempted = failed = 0
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        outcomes = []
        for cmd in cmds:
            outcomes.append(run_child(cachelab_argv(cmd.args), run_dir))
            references.append(time_reference())
        outputs = [(ROOT / cmd.writes).read_bytes() if cmd.writes else o.stdout
                   for cmd, o in zip(cmds, outcomes)]
        if first_outputs is None:
            first_outputs = outputs
            facts = workload_facts(workload, seed, trace_path)
            for i, (cmd, output) in enumerate(zip(cmds, outputs)):
                try:
                    problems[i] = cmd.check(output, facts)
                except (ValueError, KeyError, TypeError) as exc:
                    problems[i] = ["output does not parse: %r" % (exc,)]
        for i, (cmd, o, output) in enumerate(zip(cmds, outcomes, outputs)):
            attempted += 1
            if output != first_outputs[i] and not problems[i]:
                problems[i] = ["output differs from the first round"]
            why = list(problems[i])
            if o.code != 0:
                why.append("exit code %d" % o.code)
            if o.stderr:
                why.append("stderr: %r" % o.stderr[:200])
            if cmd.writes and o.stdout:
                why.append("stdout not empty")
            if why:
                failed += 1
                if i not in reported:
                    reported.add(i)
                    print("FAIL %s: %s" % (" ".join(cmd.args[:3]), "; ".join(why[:5])),
                          file=sys.stderr)
        rounds.append((sum(o.wall_s for o in outcomes), sum(o.cpu_s for o in outcomes),
                       max(o.rss_mb for o in outcomes)))
        # one probe per round, so that set-up is sampled across the whole run
        setups.append(setup_probe(source, workload.requests, run_dir))
        references.append(time_reference())
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe(source, workload.requests, run_dir))
        references.append(time_reference())

    walls, cpus, rss = (sorted(column) for column in zip(*rounds))
    setups.sort()
    references.sort()
    # times as if the host had run at the reference speed all along
    scale = REFERENCE_S / statistics.median(references)
    work = workload.requests * sum(cmd.policy_runs for cmd in cmds)
    wall = statistics.median(walls) * scale
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(cpus) * scale,
        "requests_per_s": work / wall,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups) * scale,
    }
    print("%s seed=%d: %d rounds of %d commands, %d requests x %d policy runs per round"
          % (workload.name, seed, len(rounds), len(cmds), workload.requests,
             work // workload.requests))
    print("  as measured, before times are scaled by %.4f for the host's speed:" % scale)
    for label, values in (("wall_s", walls), ("cpu_s", cpus), ("peak_rss_mb", rss),
                          ("setup_s", setups), ("reference_s", references)):
        print("  %-12s q1 %.4f  median %.4f  q3 %.4f  (n=%d)"
              % ((label,) + quartiles(values) + (len(values),)))
    correct = not any(problems.values())
    return correct, attempted, failed, metrics


def reference_loop():
    """Fixed pure-Python work that shares no code with cachelab: integer
    arithmetic and dict updates, the staples of the policies' request
    paths. Its time tracks the host's speed, which on a shared machine
    can drift by tens of percent within minutes."""
    counts = {}
    x = 1
    for _ in range(150_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 5000
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def time_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def workload_facts(workload, seed, trace_path):
    """Facts about the trace the workload's commands see."""
    import cachelab

    if workload.from_file:
        trace = cachelab.parse_trace((ROOT / trace_path).read_bytes())
        return gather_facts(workload.cache_size, "file:" + trace_path, trace)
    spec = workload.spec(seed)
    return gather_facts(workload.cache_size, "workload:" + spec,
                        cachelab.parse_workload(spec).generate())


def setup_probe(source, requests, run_dir):
    outcome = run_child([sys.executable, "-c", SETUP_PROBE, source], run_dir)
    fields = outcome.stdout.split()
    if outcome.code != 0 or outcome.stderr or len(fields) != 2 or int(fields[0]) != requests:
        raise RuntimeError("set-up probe failed: exit %d, stdout %r, stderr %r"
                           % (outcome.code, outcome.stdout[:200], outcome.stderr[:200]))
    return float(fields[1])


# ---------------------------------------------------------------------------
# entry point


def self_check(per_layer):
    """Fast checks of the benchmark itself; returns failures."""
    failures = reference.self_check()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(failures, "BENCHMARK.json workloads",
           [w["name"] for w in declared["workloads"]], list(WORKLOADS))
    expect(failures, "BENCHMARK.json end_to_end",
           [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]],
           list(END_TO_END))
    expect(failures, "BENCHMARK.json per_layer",
           [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
           list(per_layer))
    # the checks must catch a planted fault in an otherwise correct report
    facts = gather_facts(2, "inline", [i % 3 for i in range(7)])
    good = {"policy": "lru", "adaptation": None, "cache_size": 2, "trace": "inline",
            "requests": 7, "hits": 0, "misses": 7, "hit_ratio": "0/1", "opt_misses": 5,
            "miss_to_opt_ratio": "7/5", "complete_phases": 3, "violations": {},
            "hard_failure": False}
    expect(failures, "clean report", check_report(good, facts, "lru", None), [])
    for key, value in (("misses", 6), ("hit_ratio", "0/7"), ("complete_phases", 2),
                       ("violations", {"aggregate_bound": 1}), ("hard_failure", True)):
        if not check_report(dict(good, **{key: value}), facts, "lru", None):
            failures.append("a report with %s=%r passed the checks" % (key, value))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the references and the checks, then exit")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cachelab" / "__init__.py").is_file():
        print("error: %s/cachelab not found; run from a cachelab checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing  # imports cachelab, so only now

    failures = self_check(tracing.PER_LAYER)
    for failure in failures:
        print("SELF-CHECK FAIL " + failure, file=sys.stderr)
    if args.self_check:
        print("self-check: %s" % ("ok" if not failures else "%d failures" % len(failures)))
        return 1 if failures else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workload = WORKLOADS[args.workload]
    run_dir = OUT / ("run-%d" % os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            correct, attempted, failed, values, units = tracing.run_traced(
                workload, args.seed, args.seconds, OUT)
        else:
            correct, attempted, failed, values = run_untraced(
                workload, args.seed, args.seconds, run_dir)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": correct and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
